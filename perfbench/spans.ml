(* The traced run's instrument: spans recorded by the benchmark around
   each public call an op makes, plus changes of the engine's own
   counters (the [Obs.Metrics] registry, switched on only for the
   traced run). Spans stay in memory and are written out once, when
   the run ends. With tracing off, [span] is a flag test and a call. *)

let now_ns = Monotonic_clock.now
let ms_of_ns ns = Int64.to_float ns /. 1e6

type span = {
  id : int;
  name : string;  (** the public call, e.g. ["Page.load"] *)
  layer : string;  (** the module group the call belongs to *)
  op : int;  (** index of the op the span belongs to; -1 outside ops *)
  parent : int;  (** id of the enclosing span; -1 for a root *)
  start : int64;
  stop : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_op = ref (-1)

let span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_spans := id :: !open_spans;
    let start = now_ns () in
    let finish () =
      let stop = now_ns () in
      open_spans := List.tl !open_spans;
      recorded := { id; name; layer; op; parent; start; stop } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let duration s = Int64.sub s.stop s.start

(* Self time: the span's duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Int64.add (duration s)
             (Option.value ~default:0L (Hashtbl.find_opt child s.parent))))
    spans;
  List.map
    (fun s ->
      (s, Int64.sub (duration s) (Option.value ~default:0L (Hashtbl.find_opt child s.id))))
    spans

(* Total self time (ms) of the spans with this name. *)
let self_ms_of selfs name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. ms_of_ns self else acc)
    0. selfs

(* ------------------------------------------------------------------ *)
(* counters                                                            *)

type counters = (string * int) list

let snapshot () : counters = if !enabled then Obs.Metrics.counters () else []

(* [after - before], dropping names that did not move *)
let diff (before : counters) (after : counters) : counters =
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt k before) in
      if d = 0 then None else Some (k, d))
    after

(* ------------------------------------------------------------------ *)
(* output                                                              *)

let q = Obs.Json.quote

let counters_json (c : counters) =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (q k) v) c) ^ "}"

(* The span tree (as a flat list with parent links, times in ns from
   the first span) and the counter changes inside ops, one JSON
   document. *)
let write_json ~file ~workload ~seed ~(counters : counters) =
  let spans = List.rev !recorded in
  let t0 = match spans with s :: _ -> s.start | [] -> 0L in
  let oc = open_out file in
  Printf.fprintf oc
    "{\"workload\": %s, \"seed\": %d,\n\"counter_changes\": %s,\n\"spans\": [\n"
    (q workload) seed (counters_json counters);
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %s, \"layer\": %s, \"op\": %d, \"parent\": %d, \
         \"start_ns\": %Ld, \"end_ns\": %Ld}"
        (if i = 0 then "  " else ",\n  ")
        s.id (q s.name) (q s.layer) s.op s.parent (Int64.sub s.start t0)
        (Int64.sub s.stop t0))
    spans;
  output_string oc "\n]}\n";
  close_out oc
