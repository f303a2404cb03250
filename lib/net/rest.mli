(** REST support for XQuery (paper §3.4/§5.1: "Zorba chose to first
    support REST, synchronous REST calls are possible").

    Installs external functions in the [rest] namespace into a static
    context:

    - [rest:get($uri)] — fetch; XML responses parse to a document node;
    - [rest:get-text($uri)] — fetch as a string;
    - [rest:post($uri, $body)] — POST, result handled like [rest:get].

    An optional client-side document cache implements the paper's
    §6.1 optimisation ("whole XML documents can be cached in the
    browser so that most user requests can be processed without any
    interaction with the Elsevier server"). It is an LRU
    ({!Xquery.Query_cache}, counters [rest-cache.*]) of at most
    {!cache_capacity} documents, keyed by URI. *)

val namespace : string

(** The documents a client's cache keeps: a fetch of a new URI when it
    is full evicts the least recently used one. *)
val cache_capacity : int

type client

(** [retry] is the resilience policy every network call goes through
    (default {!Retry.default}; pass {!Retry.disabled} for the
    no-resilience baseline); [seed] seeds the backoff-jitter PRNG so
    retry schedules are reproducible. *)
val make_client : ?cache:bool -> ?retry:Retry.policy -> ?seed:int -> Http_sim.t -> client

(** Install a connectivity guard: when it returns false, every
    network operation raises FODC0002 (cache hits still succeed) —
    models working offline against cached/local data (paper §2.4). *)
val set_online_guard : client -> (unit -> bool) -> unit

(** Attempt/retry/timeout counters for every call made by this client. *)
val retry_stats : client -> Retry.stats

(** Graceful degradation (§2.4 Gears analogue): [put] is called with a
    pristine copy of every successfully fetched document; when retries
    are exhausted on a later fetch of the same URI, [get] is consulted
    and a copy of the stored document is served instead of raising.
    {!Browser.create} wires these to its per-origin {!Local_store}. *)
val set_fallback :
  client ->
  put:(uri:string -> Dom.node -> unit) ->
  get:(uri:string -> Dom.node option) ->
  unit

(** Fetches answered from the fallback store after retry exhaustion. *)
val fallback_hits : client -> int

(** Requests answered from the cache (no HTTP traffic). *)
val cache_hits : client -> int

val cache_misses : client -> int
val clear_cache : client -> unit

(** Fetch a document through the client (cache-aware), parsed. *)
val get_doc : client -> string -> Dom.node

(** Bind the [rest] prefix and register the functions. *)
val install : client -> Xquery.Static_context.t -> unit
