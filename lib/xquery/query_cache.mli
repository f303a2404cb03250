(** A generation-aware LRU cache for compiled artifacts.

    The motivating client is the compiled-query cache ({!Engine}
    wraps one around parse+optimize so repeated page loads of the same
    [<script type="text/xquery">] source become a lookup, paper §5),
    but the store is generic: any string key to any payload. Other
    clients are {!Jsp_sim}'s template-segment cache, the app server's
    per-tenant compiled-page partitions and {!Rest}'s per-client
    document cache.

    Keys are opaque strings; for compiled queries {!Engine} builds them
    from (source, static-context fingerprint, optimize flag).

    Invalidation is by {e generation}: {!invalidate} bumps a counter
    and every entry added under an older generation lazily misses (and
    is dropped) on its next lookup. This gives O(1) "drop everything"
    without touching the table.

    Each cache also bumps the {!Obs.Metrics} counters [<name>.hit],
    [<name>.miss], [<name>.eviction], [<name>.invalidation] and
    [<name>.cost-saved] (cost is the caller-supplied weight of a
    cached value, e.g. source bytes not re-parsed).

    A store always caches: the [--no-query-cache] ablation is
    [Ablation.current]'s [query_cache] field, which {!Engine} checks
    before it consults its cache. *)

type 'a t

(** [create ?name ?capacity ()] — [name] prefixes the obs counters
    (default ["cache"]), [capacity] is the maximum entry count
    (default 256, minimum 1). *)
val create : ?name:string -> ?capacity:int -> unit -> 'a t

val capacity : 'a t -> int

(** Shrinking below the current size evicts least-recently-used
    entries immediately. *)
val set_capacity : 'a t -> int -> unit

(** Number of live entries (stale generations included until lookup). *)
val length : 'a t -> int

(** Lookup; refreshes recency on hit. A stale-generation entry is
    dropped and reported as a miss. *)
val find : 'a t -> string -> 'a option

(** Insert (replacing any previous value under the key) under the
    current generation. [cost] is the weight credited to
    [cost_saved] on each future hit. Evicts the least-recently-used
    entry when full. *)
val add : 'a t -> string -> cost:int -> 'a -> unit

(** Bump the generation: every current entry becomes stale. *)
val invalidate : 'a t -> unit

(** Current generation number (starts at 0). *)
val generation : 'a t -> int

(** Drop all entries (stats and generation are untouched). *)
val clear : 'a t -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  cost_saved : int;  (** sum of [cost] over hits *)
}

val stats : 'a t -> stats

(** Zero the counters (entries stay cached). *)
val reset_stats : 'a t -> unit

(** [hit_rate t] = hits / (hits + misses), 0. when unused. *)
val hit_rate : 'a t -> float
