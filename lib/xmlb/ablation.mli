(** The engine's ablation switches, in one record.

    Each field turns one optimisation layer on or off; every field is
    on by default and production never turns one off. The off paths
    stay because each is an oracle or a baseline: the naive DOM
    algorithms for the accelerated ones, nested loops for hash joins,
    the reference evaluator for the closure compiler, plain
    compilation for the query cache and re-running every listener for
    incremental dispatch. Tests, the bench harness and the CLI's
    [--no-*] flags select among them.

    Every layer reads its field of {!current}; the fields are mutable
    so that a hot path ([Dom]'s probes) reads its switch with one load
    and a branch. Set them only through {!with_}, which scopes a whole
    value and restores the previous one. *)

type t = {
  mutable acceleration : bool;
      (** document-order labels, id/name buckets and the axis fast
          paths over them ([Dom]); off: path-based order and scans *)
  mutable value_index : bool;
      (** attribute- and text-value buckets behind [@k eq 'v'] probes
          and hash-join key refinement ([Dom]); CLI [--no-value-index] *)
  mutable join_planning : bool;
      (** the optimizer's equi-join planner ([Optimizer]); off: nested
          loops. CLI [--no-join-planner] *)
  mutable compiled_eval : bool;
      (** the closure compiler ([Compile]); off: the eager reference
          evaluator [Eval.eval]. CLI [--no-compiled-eval] *)
  mutable query_cache : bool;
      (** [Engine.compile_cached] consults the compiled-query cache;
          off: every source compiles from scratch. CLI
          [--no-query-cache] *)
  mutable incremental : bool;
      (** footprint-tracked listener skips ([Footprint], [Reactive]);
          off: every dispatch re-runs. CLI [--no-incremental] *)
}

(** The configuration the engine runs under. *)
val current : t

(** [with_ v f] runs [f] with {!current} set to a copy of [v] and
    restores the previous value when [f] returns or raises. Build [v]
    from {!current} to change some fields and keep the others, e.g.
    [with_ { current with value_index = false } f]. *)
val with_ : t -> (unit -> 'a) -> 'a

(** Bumped on every change of {!current}: state recorded under one
    value (a listener's footprint) can tell that the value changed
    since. *)
val generation : unit -> int

(** Each field with its name, in declaration order: ["acceleration"],
    ["value-index"], ["join-planning"],
    ["compiled-eval"], ["query-cache"], ["incremental"]. *)
val fields : t -> (string * bool) list

(** One character per field, ['1'] on and ['0'] off: a cache key
    prefix that changes whenever any field does. *)
val key : t -> string
