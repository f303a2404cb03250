(** A simulated HTTP layer over the virtual clock.

    Hosts register handlers under ["host[:port]"]; clients fetch by
    URI. Latency is modelled as [base + per_kb * size] virtual seconds
    each way, so the server-offload experiment (paper §6.1 / Fig. 2)
    can count both requests and time. *)

type meth = Get | Post

type request = { meth : meth; uri : string; path : string; body : string option }

type response = {
  status : int;
  body : string;
  content_type : string;
  retry_after : float option;
      (** a [Retry-After] hint in virtual seconds, set by overloaded
          servers on 503 responses; {!Retry} honours it as a lower
          bound on the backoff before the next attempt *)
}

type latency_model = {
  base : float;  (** per-request virtual seconds *)
  per_kb : float;  (** additional seconds per KiB of response body *)
}

val default_latency : latency_model

(** {1 Fault injection}

    The simulated network can be made adversarial: each request drawn
    against a {!fault_spec} may be dropped (status 0, fast failure),
    answered 503, have its body corrupted (truncated mid-markup), or
    pay extra latency. Decisions come from a {!Prng} seeded via
    {!set_faults}, in a fixed per-request draw order, so a fault
    schedule is exactly reproducible from its seed. Probabilities of 0
    consume no randomness: a rate-0 spec is byte-identical to no spec. *)

type fault_kind = Drop | Http_5xx | Corrupt_body | Extra_delay

type fault_spec = {
  drop : float;  (** P(connection drops; response has status 0) *)
  http_5xx : float;  (** P(server answers 503 without running the handler) *)
  corrupt_body : float;  (** P(a 200 body is truncated and de-well-formed) *)
  extra_delay : float;  (** P(the round trip pays [extra_delay_s] more) *)
  extra_delay_s : float;  (** magnitude of the injected delay, seconds *)
}

val no_faults : fault_spec

(** A simple adversary: total failure probability [rate], split evenly
    between drops and 503s. [rate] must be in [0, 1). *)
val uniform_faults : rate:float -> fault_spec

type t

val create : ?latency:latency_model -> Virtual_clock.t -> t
val clock : t -> Virtual_clock.t

(** Register a handler for a host (e.g. ["www.example.com"] or
    ["localhost:2001"]). *)
val register_host : t -> host:string -> (request -> response) -> unit

(** The currently registered handler for a host, for chaining. *)
val find_host : t -> host:string -> (request -> response) option

(** Convenience: serve a fixed document body at exactly this URI. *)
val register_doc : t -> uri:string -> ?content_type:string -> string -> unit

val ok : ?content_type:string -> string -> response
val not_found : string -> response

(** Split a URI into (host, path): ["http://h:1/p?q"] → (["h:1"], ["/p?q"]). *)
val split_uri : string -> (string * string) option

(** Install a fault model, either as the default for every host or
    (with [~host]) as a per-host override. Each call installs a fresh
    PRNG seeded with [seed], so two identically-seeded runs replay the
    same schedule. *)
val set_faults : t -> ?host:string -> seed:int -> fault_spec -> unit

(** Serve a request and return [(response, round-trip latency)] without
    advancing the clock — the hook {!Retry} uses to model per-attempt
    timeouts (the caller decides how much of the latency it waits). *)
val serve : t -> ?meth:meth -> ?body:string -> string -> response * float

(** Add [s] virtual seconds of server-side work (queueing + service
    time) to the latency of the request currently being handled. Only
    meaningful from inside a host handler; {!App_server}'s request
    queue uses it so clients pay for server load. *)
val charge_latency : t -> float -> unit

(** Synchronous fetch: advances the virtual clock by the round-trip
    latency (models a blocking XMLHttpRequest). *)
val fetch : t -> ?meth:meth -> ?body:string -> string -> response

(** Asynchronous fetch: schedules the callback after the round-trip
    latency without blocking the caller. *)
val fetch_async :
  t -> ?meth:meth -> ?body:string -> string -> (response -> unit) -> unit

(** {1 Statistics (per host)} *)

val request_count : t -> host:string -> int
val total_requests : t -> int
val bytes_served : t -> host:string -> int

(** Number of faults injected so far, by kind. *)
val injected_faults : t -> fault_kind -> int

val total_injected_faults : t -> int

(** Requests answered for [host] that did ([ok:true]) / did not
    ([ok:false]) end in a 200. *)
val outcome_count : t -> host:string -> ok:bool -> int

val reset_stats : t -> unit
