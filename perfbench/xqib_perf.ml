(* One repetition of one workload of the end-to-end benchmark, in this
   process.

     xqib_perf.exe --workload page-load|click|fleet --seed N --seconds S
                   [--trace FILE] [--setup-only] [--inputs] [--wrong-expectation]

   Prints a human-readable report, then one JSON line with the raw
   results: every op's latency and the loop time between ops, peak
   heap, set-up time, failures and, when traced, the per-layer
   metrics. perfbench/run.py builds and drives it: it repeats each
   workload in fresh processes, merges the repetitions, checks the
   timer and prints the metrics. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace_file = ref ""
let setup_only = ref false
let inputs_only = ref false
let wrong = ref false

let args =
  [
    ("--workload", Arg.Set_string workload, "page-load | click | fleet");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S budget of this repetition; sets the number of ops");
    ("--trace", Arg.Set_string trace_file, "FILE traced run; spans and counters go to FILE");
    ("--setup-only", Arg.Set setup_only, " time the set-up and stop");
    ("--inputs", Arg.Set inputs_only, " print a digest of the generated inputs and stop");
    ("--wrong-expectation", Arg.Set wrong, " corrupt expected values (tests the checks)");
  ]

let q = Obs.Json.quote
let num = Obs.Json.number
let ops per_second = Workloads.scaled per_second !seconds

(* a digest of every generated input byte, for the determinism test *)
let inputs_digest () =
  let buf = Buffer.create 4096 in
  (match !workload with
  | "page-load" ->
      Array.iter
        (fun (p : Gen.page) ->
          Buffer.add_string buf p.html;
          Buffer.add_string buf p.summary)
        (Gen.pages ~seed:!seed ~n:(ops Workloads.pages_per_second))
  | "click" ->
      let c = Gen.click_input ~seed:!seed ~ops:(ops Workloads.click_ops_per_second) in
      Buffer.add_string buf c.html;
      Array.iter (fun (s : Gen.click_step) -> Buffer.add_string buf s.expect) c.steps
  | "fleet" ->
      let f = Gen.fleet_input ~seed:!seed ~sessions:(ops Workloads.sessions_per_second) in
      Printf.bprintf buf "%d %d %d %d %d %d %g %d" f.journals f.volumes f.issues f.articles
        f.sessions f.visits f.spread f.fleet_seed
  | w -> failwith ("unknown workload " ^ w));
  Printf.sprintf "%s %d" (Digest.to_hex (Digest.string (Buffer.contents buf))) (Buffer.length buf)

(* With --wrong-expectation the first op (every op on fleet) expects a
   value no correct run produces. *)
let corrupt first s = if !wrong && first then s ^ " (deliberately wrong)" else s

(* set up, then return the op loop to run *)
let setup () =
  match !workload with
  | "page-load" ->
      let s = Workloads.page_load_setup ~seed:!seed ~seconds:!seconds in
      let expect p = corrupt (p == s.pages.(0)) (Workloads.page_load_expect p) in
      fun () -> Workloads.page_load ~expect s
  | "click" ->
      let c = Workloads.click_setup ~seed:!seed ~seconds:!seconds in
      let expect (s : Gen.click_step) = corrupt (s == c.input.steps.(0)) s.expect in
      fun () -> Workloads.click ~expect c
  | "fleet" ->
      let f = Workloads.fleet_setup ~seed:!seed ~seconds:!seconds in
      let expect i = corrupt true (Workloads.fleet_expect i) in
      fun () -> Workloads.fleet ~expect f
  | w -> failwith ("unknown workload " ^ w)

let floats a = "[" ^ String.concat ", " (Array.to_list (Array.map num a)) ^ "]"

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "xqib_perf.exe [options]";
  Minijs.Js_interp.install ();
  if !inputs_only then (
    print_endline (inputs_digest ());
    exit 0);
  let tracing = !trace_file <> "" in
  let t0 = Spans.now_ns () in
  let loop = setup () in
  let setup_s = Int64.to_float (Int64.sub (Spans.now_ns ()) t0) /. 1e9 in
  (* the machine's speed just after the set-up; the traced run scales
     nothing, and probes would make its counts vary *)
  let setup_speed =
    if tracing then Float.nan
    else
      let a = Array.init 9 (fun _ -> Workloads.speed_probe ()) in
      Array.sort Float.compare a;
      a.(4)
  in
  if !setup_only then (
    Printf.printf "{\"setup_s\": %s, \"setup_speed_ms\": %s}\n" (num setup_s) (num setup_speed);
    exit 0);
  (* counters and spans cover the op loop only *)
  if tracing then (
    Obs.Metrics.set_enabled true;
    Spans.enabled := true);
  let o = loop () in
  let op_sum_ms = Array.fold_left ( +. ) 0. o.samples in
  Printf.printf "%s seed %d%s: %d ops, %d failed, set-up %.3f s\n" !workload !seed
    (if tracing then " (traced)" else "")
    o.attempted o.failed setup_s;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) o.failures;
  Printf.printf "  op loop %.1f ms: ops %.1f ms, checks and probes %.1f ms%s\n" o.loop_ms
    op_sum_ms o.outside_ms
    (if o.ops_nested then " (ops nested in untimed client work)" else "");
  let metrics =
    if tracing then (
      Spans.write_json ~file:!trace_file ~workload:!workload ~seed:!seed ~counters:o.counters;
      List.map
        (fun (k, v) ->
          Printf.printf "  %-32s %14.4f\n" k v;
          Printf.sprintf "%s: %s" (q k) (num v))
        o.layers)
    else []
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"setup_s\": %s, \"setup_speed_ms\": %s, \"attempted\": %d, \
     \"failed\": %d, \"failures\": [%s], \"done\": %d, \"loop_ms\": %s, \"op_sum_ms\": %s, \
     \"outside_ms\": %s, \"ops_nested\": %b, \"ops_per_s\": %s, \"heap_mb\": %s, \
     \"op_ms\": %s, \"gap_ms\": %s, \"speed_ms\": %s, \"metrics\": {%s}}\n"
    (q !workload) !seed tracing (num setup_s) (num setup_speed) o.attempted o.failed
    (String.concat ", " (List.map q o.failures))
    o.done_ops (num o.loop_ms) (num op_sum_ms) (num o.outside_ms) o.ops_nested
    (num o.ops_per_s) (num heap_mb) (floats o.samples) (floats o.gaps) (floats o.speed)
    (String.concat ", " metrics)
