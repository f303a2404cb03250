(** Read/write footprints for incremental listener recomputation.

    The evaluator records, per listener run, a {e read footprint}: which
    tree roots it consulted, which subtrees it walked, and which
    local-name / id / attribute-value index keys it probed — each probe
    scoped to the subtree it was confined to. The DOM mutators emit one
    {e write record} per mutation (ancestor-or-self chain of the
    mutation point, and the names / ids / attribute keys it touched),
    batched per PUL apply. {!intersects} decides whether a mutation
    batch can have changed anything a recorded run read.

    Ownership: each tree root's per-root record in [Dom] carries a
    {!watch}. A pure run's footprint is {!register}ed with the watch of
    every root it consulted, and {!commit} intersects each write batch
    only with the footprints on the written root's watch, marking the
    hits dirty. A watch holds its footprints weakly — the listener memo
    owning a footprint keeps it alive — so nothing here outlives the
    listener or the document it belongs to.

    Names, id values and attribute keys are keyed by their strings.

    The module knows node ids and strings only: it sits below
    [Dom] so both the DOM (capture side) and the evaluator (recording
    side) can use it. *)

type read

val create : unit -> read

(** A single mutation's write summary. *)
type wrec

(** {1 Watches} *)

(** The footprints registered on one tree root. *)
type watch

val watch : unit -> watch

(** Should a mutation under the root of this watch be captured? Only
    while [Ablation.current.incremental] is on (the [--no-incremental]
    ablation: off, nothing captures and listeners always re-run) and
    some clean footprint is registered on it: mutations of other
    trees (fresh constructor trees, detached scratch nodes) skip write
    capture entirely. *)
val capturing : watch -> bool

(** Register a completed pure run's footprint with the watch of every
    root it consulted. *)
val register : read -> unit

(** Neither dirtied by a committed write since it was recorded nor
    recorded under an earlier {!Xmlb.Ablation} value (writes made while
    [incremental] is off go uncaptured): the run it describes would
    repeat exactly. *)
val is_clean : read -> bool

(** {1 Recording (read side)}

    One recorder is active at a time; [start] returns the previous one
    so nested listener runs save/restore. All [reading_*] calls are
    no-ops when no recorder is active; [root] is the watch of the root
    of the tree read. *)

val recording : unit -> bool
val start : read -> read option
val restore : read option -> unit

(** The run walked the subtree rooted at node id [node]. *)
val reading_scope : root:watch -> node:int -> unit

(** Local-name index probe confined to subtree [scope]. *)
val reading_name : root:watch -> scope:int -> string -> unit

(** id lookup confined to subtree [scope]. *)
val reading_id : root:watch -> scope:int -> string -> unit

(** (attribute local name, value) index probe confined to [scope]. *)
val reading_key : root:watch -> scope:int -> local:string -> string -> unit

(** The run read state we cannot fingerprint (global variables,
    external functions, impure builtins) or performed effects; its memo
    must never be skipped. *)
val poison : unit -> unit

val is_poisoned : read -> bool

(** {1 Write records}

    Built by the DOM mutators and queued, with the watch of the root
    they were made under, until {!commit}: one batch per PUL apply, or
    per single direct mutation. *)

val fresh_wrec : chain:int list -> wrec
val add_wname : wrec -> string -> unit
val add_wid : wrec -> string -> unit
val add_wkey : wrec -> local:string -> string -> unit
val record_write : watch -> wrec -> unit

(** Mark dirty, and unregister, every registered footprint the queued
    batch intersects; each counts once in the registry counter
    [reactive.invalidation]. *)
val commit : unit -> unit

(** {1 Intersection} *)

(** [intersects fp batch]: could applying [batch] — writes under a root
    the run consulted — change anything the run that recorded [fp]
    read? Poisoned footprints intersect everything. *)
val intersects : read -> wrec list -> bool
