(* Timing helpers built on Bechamel: every timed experiment goes
   through [ns_per_run], which runs the thunk under Bechamel's
   monotonic clock and returns the OLS estimate of nanoseconds per
   run. *)

open Bechamel
open Toolkit

(* --smoke: tiny quotas and sizes so CI can exercise every bench path
   cheaply; sections consult [smoke_enabled] for their size lists. *)
let smoke = ref false
let set_smoke b = smoke := b
let smoke_enabled () = !smoke

let ns_per_run ?quota f =
  let quota =
    if !smoke then 0.05 else match quota with Some q -> q | None -> 0.5
  in
  let test = Test.make ~name:"b" (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock
      raw
  in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ ols ] -> (
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> est
      | _ -> Float.nan)
  | _ -> Float.nan

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let section id title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==============================================================\n"

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_<id>.json at the repo root, one
   entry per measured cell, so the perf trajectory is trackable
   across PRs. Skipped in smoke mode (smoke numbers are meaningless
   and would clobber the committed ones). *)

type entry = { e_name : string; e_n : int; e_ns : float; e_speedup : float option }
type report = { file : string; mutable entries : entry list }

let report file = { file; entries = [] }

(* [speedup] is against the section's baseline variant *)
let entry r ?speedup name n ns =
  r.entries <- { e_name = name; e_n = n; e_ns = ns; e_speedup = speedup } :: r.entries

let write r =
  if not !smoke then begin
    let oc = open_out r.file in
    let num f = if Float.is_nan f then "null" else Printf.sprintf "%.1f" f in
    output_string oc "[\n";
    List.iteri
      (fun i e ->
        Printf.fprintf oc
          "%s  {\"name\": %S, \"n\": %d, \"ns_per_op\": %s, \"speedup\": %s}"
          (if i > 0 then ",\n" else "")
          e.e_name e.e_n (num e.e_ns)
          (match e.e_speedup with
          | None -> "null"
          | Some s -> Printf.sprintf "%.2f" s))
      (List.rev r.entries);
    output_string oc "\n]\n";
    close_out oc;
    Printf.printf "wrote %s (%d entries)\n" r.file (List.length r.entries)
  end
