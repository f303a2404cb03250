(** Reactive dispatch: footprint-tracked listener memos.

    Every listener registered through the evaluator owns a {!memo},
    held only by the registration's callback closure. After a pure run,
    the memo holds the run's read footprint — registered with the
    per-root watch of every tree it read — and its argument
    fingerprint. A later dispatch with the same argument
    fingerprint is skipped outright unless some mutation batch since
    then intersected the footprint ({!Footprint.commit} marks it
    dirty) — under deterministic evaluation the skipped run would have
    repeated the previous one exactly: same discarded result, no
    effects.

    Nothing is keyed by listener: removing a registration, or dropping
    its document, frees the memo and its footprint with the closure.

    Impure runs (PUL effects, external functions, impure builtins,
    global variable reads) latch the memo as unmemoizable; it then runs
    plain, with zero recording overhead, forever. The
    [--no-incremental] ablation ([Ablation.current]'s [incremental]
    field) restores always-re-run dispatch globally; memos recorded
    under an earlier {!Xmlb.Ablation} value never skip again, and
    re-record once it is back on. *)

type memo

val fresh_memo : unit -> memo

(** {1 Run protocol} (driven by [Eval.make_listener]) *)

type decision = Skip | Run_recorded | Run_plain

val decide : memo -> args_key:string -> decision

(** Builtins whose result depends on state the footprint cannot see
    (documents, clocks, trace), by their pre-interned local-name
    symbol: calling one poisons the run. *)
val impure_builtin_sym : Xmlb.Sym.t -> bool

(** The registry counters [reactive.skip] and [reactive.rerun], bumped
    by the dispatcher. *)
val skips : Obs.Metrics.counter
val reruns : Obs.Metrics.counter

(** Record the argument nodes as read scopes of the active recorder
    (their content is observable without any navigation step). *)
val record_args : Xdm_item.sequence list -> unit

(** Store the outcome of a recorded run: registers and caches the
    footprint and argument fingerprint on a pure successful run,
    latches impurity on a poisoned one, caches nothing on an error. *)
val finish_run : memo -> ok:bool -> args_key:string -> fp:Footprint.read -> unit

(** {1 Counters} (views of the registry's [reactive.*] counters;
    [reset_counters] is {!Obs.Metrics.reset}) *)

val counter_stats : unit -> (string * int) list
val reset_counters : unit -> unit
