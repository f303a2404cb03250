(** A deterministic virtual clock with a task queue.

    All latency in the simulated network and browser event loop is
    virtual: scheduling a task at [now + delay] and running the queue
    advances time without wall-clock sleeping, so tests and the
    offload/async experiments (F2, T4) are exactly reproducible. *)

type t

val create : ?start:float -> unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** How late the currently-running task fired ([now - fire_at] at the
    moment it started, 0 outside tasks). Running concurrent sessions
    sequentially means one session's blocking work advances the clock
    past another's scheduled start; [now t -. current_lag t] recovers
    the session-local time — {!App_server}'s request queue uses it as
    the arrival time, so a fleet's requests queue up as if they really
    were concurrent. Reset to 0 when the queue drains. *)
val current_lag : t -> float

(** Advance time directly (models synchronous blocking work). *)
val sleep : t -> float -> unit

(** Schedule a task [delay] seconds from now. Tasks with equal fire
    times run in scheduling order. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

val pending : t -> int

(** Run the earliest task (advancing time to its fire time). Returns
    false if the queue is empty. *)
val run_next : t -> bool

(** Raised by {!run_until_idle} when its task budget runs out with
    work still queued: [budget] tasks ran, [pending] remain. Large
    simulations (the fleet scheduler) pass an explicit budget scaled
    to their size; truncation is never silent — the exception is
    raised after bumping the [clock.budget-exhausted] counter and
    logging at error level. *)
exception Budget_exhausted of { budget : int; pending : int }

(** Run tasks until the queue is empty. [max_tasks] (default 100_000)
    guards against runaway self-scheduling loops; on overflow raises
    {!Budget_exhausted}. *)
val run_until_idle : ?max_tasks:int -> t -> unit

(** The current virtual time in seconds since the Unix epoch: virtual
    time 0 is 2008-06-09T12:00:00Z. *)
val epoch_seconds : t -> float

(** {!epoch_seconds} as a UTC dateTime; used to expose the clock as
    fn:current-dateTime(). *)
val to_datetime : t -> Xdm_datetime.t
