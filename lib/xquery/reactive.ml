(* Reactive dispatch: per-listener-registration memos that let event
   dispatch skip re-running a listener when nothing it read has changed.

   Each [Dom_event] registration made through the evaluator owns a
   [memo], held only by the registration's callback closure. A listener
   run is skipped iff its memo holds the footprint of a previous run
   that (a) was pure — no PUL effects, no external functions, no impure
   builtins, no global reads — (b) is still clean: no committed
   mutation batch intersected it, and (c) received arguments with the
   same fingerprint. Under deterministic evaluation those three
   conditions imply the re-run would repeat the previous run exactly —
   same (discarded) result, no effects — so skipping is unobservable.

   The footprint is registered with the per-root watch of every tree it
   read ([Footprint.register]); a write batch marks dirty only the
   footprints on the written root. Nothing here is keyed by listener:
   removing a registration, or dropping its document, frees the memo
   and its footprint with the closure. *)

module I = Xdm_item

type memo = {
  mutable fp : Footprint.read option;
      (* footprint of the last completed pure run, registered with the
         roots it read; never poisoned *)
  mutable args_key : string;
  mutable latched_poison : bool;
      (* a run proved impure: stop recording attempts for good *)
  mutable skipped_since_record : bool;
      (* the cached footprint produced at least one skip *)
  mutable wasted : int;
      (* consecutive recordings discarded without a single skip *)
  mutable plain_streak : int;  (* plain runs since the last probe *)
}

let fresh_memo () =
  {
    fp = None;
    args_key = "";
    latched_poison = false;
    skipped_since_record = false;
    wasted = 0;
    plain_streak = 0;
  }

(* Adaptive bypass: recording a run costs real time (footprint tables,
   fingerprints, root tracking). A listener whose recordings keep being
   invalidated before yielding a single skip — every mutation touches
   it, or its arguments never repeat — stops recording after
   [bypass_after] wasted recordings and runs plain, re-probing every
   [probe_every]-th dispatch so it recovers if the workload settles. *)
let bypass_after = 2
let probe_every = 16

let skips = Obs.Metrics.counter "reactive.skip"
let reruns = Obs.Metrics.counter "reactive.rerun"
let poisoned_runs = Obs.Metrics.counter "reactive.poisoned"

(* the handle Footprint bumps *)
let invalidations = Obs.Metrics.counter "reactive.invalidation"

let counter_stats () =
  List.map
    (fun (k, c) -> (k, Obs.Metrics.value c))
    [ ("skips", skips); ("reruns", reruns); ("invalidations", invalidations);
      ("poisoned-runs", poisoned_runs) ]

let reset_counters = Obs.Metrics.reset

(* Builtins whose value depends on state outside the DOM footprint
   (documents, clocks, the trace sink), keyed by interned local name:
   the eight are interned once at module init, so the per-call check is
   an int-set probe. Both the interpreter's builtin dispatch and the
   closure compiler's builtin-call emission consult it before running
   one inside a recorded listener. *)
let impure_syms : (int, unit) Hashtbl.t = Hashtbl.create 16

let () =
  List.iter
    (fun l -> Hashtbl.replace impure_syms (Xmlb.Sym.intern l :> int) ())
    [
      "doc"; "doc-available"; "put"; "current-dateTime"; "current-date";
      "current-time"; "implicit-timezone"; "trace";
    ]

let impure_builtin_sym (sym : Xmlb.Sym.t) = Hashtbl.mem impure_syms (sym :> int)

(* ------------------------------------------------------------------ *)
(* Run protocol (driven by Eval.make_listener)                         *)

type decision = Skip | Run_recorded | Run_plain

let decide m ~args_key:akey =
  if not Xmlb.Ablation.current.incremental || m.latched_poison then Run_plain
  else
    match m.fp with
    | Some fp when Footprint.is_clean fp && String.equal m.args_key akey ->
        m.skipped_since_record <- true;
        Skip
    | _ ->
        (* any cached record is about to be discarded; account whether
           it ever paid for itself, and release it now *)
        (match m.fp with
        | Some _ ->
            if m.skipped_since_record then m.wasted <- 0
            else m.wasted <- m.wasted + 1;
            m.fp <- None
        | None -> ());
        if m.wasted >= bypass_after then begin
          m.plain_streak <- m.plain_streak + 1;
          if m.plain_streak >= probe_every then begin
            m.plain_streak <- 0;
            Run_recorded
          end
          else Run_plain
        end
        else Run_recorded


(* Record the arguments themselves as read scopes: their names, values
   and subtrees are observable without any recorded navigation step. *)
let record_args (args : I.sequence list) =
  List.iter
    (fun seq ->
      List.iter
        (function
          | I.Node n ->
              Footprint.reading_scope ~root:(Dom.root_watch n) ~node:(Dom.id n)
          | I.Atomic _ -> ())
        seq)
    args

(* Close out a recorded run. [ok] is false when the run raised (listener
   error path): nothing is cached, but impurity is not latched — the
   error may be data-dependent, and with no stored footprint the
   listener re-runs every time anyway. *)
let finish_run m ~ok ~args_key:akey ~fp =
  m.fp <- None;
  if ok && Footprint.is_poisoned fp then begin
    m.latched_poison <- true;
    Obs.Metrics.incr poisoned_runs
  end
  else if ok then begin
    Footprint.register fp;
    m.fp <- Some fp;
    m.args_key <- akey;
    m.skipped_since_record <- false
  end
