(* The table of the ablation sections (T8, T11–T14) and its runner.

   A section is a spec: a table of rows compared under two
   [Ablation.t] values. For every size the runner builds each row under
   both variants, checks that they compute the same result (the
   ablated variant is the oracle), times both with [ns_per_run],
   prints the row and adds its two BENCH entries. Every counter must
   reach its floor before the BENCH file is written. Under --check it
   then applies the section's gates: enough gated rows clear the
   speedup bar at the largest n and every A/A row stays within its
   bound. T14's bespoke checks are hooks around its spec;
   T9, T10 and T15 keep their own set-up and report through the same
   printer, BENCH writer and gate helpers. *)

module Ablation = Xmlb.Ablation
open Bench_util

(* ------------------------------------------------------------------ *)
(* failing and retrying                                                *)

let fail id fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s FAIL: %s\n" id msg;
      exit 1)
    fmt

(* [retry ~tries pass] runs [pass 1], [pass 2], … until one holds or
   [tries] have not *)
let retry ~tries pass =
  let rec go t = pass t || (t < tries && go (t + 1)) in
  go 1

let at_least id what value floor =
  if not (value >= floor) then
    fail id "%s reads %.2f, below its floor %.2f" what value floor

(* An A/A gate: [delta ()] measures the relative slowdown of the side
   under test; it must stay within [bound], re-measured up to three
   times to absorb scheduler hiccups. *)
let aa id ~name ~bound delta =
  let tries = 3 in
  if
    not
      (retry ~tries (fun t ->
           let d = delta () in
           Printf.printf "A/A %s delta (try %d): %+.1f%%\n" name t (100. *. d);
           d <= bound))
  then fail id "A/A %s delta above +%.0f%% after %d tries" name (100. *. bound) tries

(* The A/A statistic: the noise of a microsecond-scale run is additive,
   so each side reads the minimum of five estimates, taken a, b, a, b,
   … after one warm-up each (EXPERIMENTS.md §T9). *)
let min_of_five time_a time_b =
  Gc.major ();
  ignore (time_a ());
  ignore (time_b ());
  let rec go n a b =
    if n = 0 then (a, b)
    else
      let a = Float.min a (time_a ()) in
      go (n - 1) a (Float.min b (time_b ()))
  in
  go 5 infinity infinity

(* ------------------------------------------------------------------ *)
(* the row printer                                                     *)

let cells f l = String.concat "" (List.map (fun x -> Printf.sprintf " %14s" (f x)) l)

let header n labels =
  Printf.printf "%-8d %-20s%s %9s\n" n "workload" (cells Fun.id labels) "speedup"

let line name times speedup =
  Printf.printf "%-8s %-20s%s %8.1fx\n" "" name (cells pretty_ns times) speedup

(* one compared row: printed, and written as the fast side's entry
   (with the speedup) followed by the slow side's *)
let pair r ~n ~name ~suffix fast slow =
  let speedup = slow /. fast in
  line name [ fast; slow ] speedup;
  entry r ~speedup name n fast;
  entry r (name ^ suffix) n slow;
  speedup

(* ------------------------------------------------------------------ *)
(* the table                                                           *)

type role =
  | Win  (** counts toward the speedup gate at its group's largest n *)
  | Aa  (** under --check the fast side stays within the A/A bound *)
  | Aa_only  (** an A/A measured only by the --check gate, never listed *)
  | Shown  (** listed, not gated *)

(* What runs under a variant, built under it: a query compiled over the
   group's document, or a set-up that returns the timed run and how to
   show its result to the oracle. *)
type 'i work =
  | Query : (int -> string) -> Dom.node work
  | Thunk : (int -> 'i -> unit -> 'r) * ('r -> string) -> 'i work

(* [slow], when given, replaces the spec's slow variant for this row,
   so each row can ablate one layer *)
type 'i row = { name : string; work : 'i work; role : role; slow : Ablation.t option }

let row ?slow role name work = { name; work; role; slow }
let query ?slow role name src = row ?slow role name (Query (fun _ -> src))

(* rows sharing sizes (smoke, full) and an input built once per size *)
type group =
  | Group : {
      sizes : int list * int list;
      input : int -> 'i;
      rows : 'i row list;
    }
      -> group

let group sizes input rows = Group { sizes; input; rows }

type spec = {
  id : string;
  title : string;
  file : string;
  fast : string * Ablation.t;  (** column label, variant *)
  slow : string * Ablation.t;
  suffix : string;  (** appended to a row's name for the slow entry *)
  groups : group list;
  bar : float * float;  (** speedup bar, smoke and full *)
  wins : int;  (** [Win] rows that must clear the bar *)
  win_tries : int;
  aa_bound : float;
  floors : (string * string * int) list;
      (** counters read after the rows: BENCH name under counters/,
          registry counter, least value *)
  counted : (int * (unit -> unit)) option;
      (** a workload run after a registry reset, so the counters read
          it alone, and the n of their entries; [None]: they read what
          the rows left, at the largest n *)
  note : string;  (** the shape check printed after the table *)
}

let pick (smoke, full) = if smoke_enabled () then smoke else full
let compile src = Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src
let eval_on doc q = Xquery.Engine.run ~context_item:(Xdm_item.Node doc) q

(* [row] built under the variant: its timed run and its result as the
   oracle compares it *)
let prepare : type i. int -> i -> i work -> (unit -> unit) * (unit -> string) =
 fun n input -> function
  | Query src ->
      let q = compile (src n) in
      ( (fun () -> ignore (Sys.opaque_identity (eval_on input q))),
        fun () -> Xdm_item.to_display_string (eval_on input q) )
  | Thunk (setup, show) ->
      let go = setup n input in
      ((fun () -> ignore (Sys.opaque_identity (go ()))), fun () -> show (go ()))

(* [row] at [n], built and checked under each variant: (fast, slow)
   timers, each returning ns per run *)
let timers spec n input (row : _ row) =
  let under (_, v) f = Ablation.with_ v f in
  let slow = (fst spec.slow, Option.value row.slow ~default:(snd spec.slow)) in
  let f_run, f_result = under spec.fast (fun () -> prepare n input row.work) in
  let s_run, s_result = under slow (fun () -> prepare n input row.work) in
  if under spec.fast f_result <> under slow s_result then
    fail spec.id "%s at n=%d: %s and %s results differ" row.name n (fst spec.fast)
      (fst slow);
  ( (fun () -> under spec.fast (fun () -> ns_per_run f_run)),
    fun () -> under slow (fun () -> ns_per_run s_run) )

(* one measurement of each side: (fast, slow) ns per run *)
let once (fast, slow) =
  let f = fast () in
  (f, slow ())

let run ?(before = ignore) ?(after = ignore) ~check spec =
  section spec.id spec.title;
  let r = report spec.file in
  before r;
  (* every row at its group's largest n: name, role, listed speedup and
     how to build its timers again *)
  let last = ref [] in
  List.iter
    (fun (Group g) ->
      let sizes = pick g.sizes in
      List.iter
        (fun n ->
          let input = g.input n in
          header n [ fst spec.fast; fst spec.slow ];
          List.iter
            (fun row ->
              let again () = timers spec n input row in
              let speedup =
                if row.role = Aa_only then Float.nan
                else
                  let fast, slow = once (again ()) in
                  pair r ~n ~name:row.name ~suffix:spec.suffix fast slow
              in
              if n = List.fold_left max 0 sizes then
                last := (row.name, row.role, speedup, again) :: !last)
            g.rows)
        sizes)
    spec.groups;
  Option.iter
    (fun (_, workload) ->
      Obs.Metrics.reset ();
      workload ())
    spec.counted;
  let counts =
    List.map (fun (k, c, floor) -> (k, Obs.Metrics.(value (counter c)), floor)) spec.floors
  in
  if counts <> [] then
    Printf.printf "\ncounters:%s\n"
      (String.concat "" (List.map (fun (k, v, _) -> Printf.sprintf " %s=%d" k v) counts));
  let largest =
    List.fold_left (fun m (Group g) -> List.fold_left max m (pick g.sizes)) 0 spec.groups
  in
  let at = Option.fold ~none:largest ~some:fst spec.counted in
  List.iter (fun (k, v, _) -> entry r ("counters/" ^ k) at (float_of_int v)) counts;
  (* a run whose counters show a fast path never ran writes nothing *)
  List.iter
    (fun (k, v, floor) -> at_least spec.id ("counter " ^ k) (float_of_int v) (float_of_int floor))
    counts;
  after r;
  write r;
  print_endline ("\nshape check: " ^ spec.note);
  if check then begin
    let rows role = List.filter (fun (_, r, _, _) -> r = role) (List.rev !last) in
    let wins = rows Win and bar = pick spec.bar in
    let speedups = ref (List.map (fun (_, _, s, _) -> s) wins) in
    let cleared () = List.length (List.filter (fun s -> s >= bar) !speedups) in
    if
      not
        (retry ~tries:spec.win_tries (fun t ->
             if t > 1 then
               speedups :=
                 List.map
                   (fun (_, _, _, again) ->
                     let fast, slow = once (again ()) in
                     slow /. fast)
                   wins;
             Printf.printf "speedup gate (try %d): %d of %d rows reach %.1fx\n" t
               (cleared ()) (List.length wins) bar;
             cleared () >= spec.wins))
    then
      fail spec.id "only %d gated rows reached the %.1fx bar at the largest n (%d needed)"
        (cleared ()) bar spec.wins;
    List.iter
      (fun (name, _, _, again) ->
        aa spec.id ~name ~bound:spec.aa_bound (fun () ->
            let fast, slow = again () in
            let fast, slow = min_of_five fast slow in
            (fast -. slow) /. slow))
      (rows Aa @ rows Aa_only);
    Printf.printf "%s check: results identical, gates met\n" spec.id
  end
