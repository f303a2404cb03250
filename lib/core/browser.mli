(** The simulated browser: window tree, virtual-time event loop,
    rendering/dirtying accounting, alert sink, and simulated user
    interactions. This plays the role of Internet Explorer in the
    paper's architecture (Fig. 1): it owns the DOM, listens for
    events, and calls the XQuery engine's listeners. *)

type t = {
  clock : Virtual_clock.t;
  http : Http_sim.t;
  rest : Rest.client;
  top_window : Windows.t;
  screen : Bom.screen;
  navigator : Bom.navigator;
  policy : Origin.policy;
  uppercase_tags : bool;  (** IE's tag-upper-casing quirk (§5.1) *)
  mutable alerts : string list;  (** chronological *)
  mutable prompt_response : string;
  mutable confirm_response : bool;
  mutable render_count : int;  (** DOM mutations observed on the page *)
  mutable ui_blocked : float;  (** virtual seconds spent inside dispatch *)
  mutable events_dispatched : int;
  mutable doc_observer : Dom.observer_id option;
  mutable on_navigate : Windows.t -> string -> unit;
  local_store : Local_store.t;
      (** per-origin client-side XML storage (the Gears analogue, §2.4) *)
  mutable online : bool;
      (** when false, all network fetches fail — models working offline
          against the local store *)
  mutable script_errors : string list;
      (** errors raised inside listeners (newest first), like a browser
          error console *)
  mutable retry : Retry.policy;
      (** resilience policy for page loads (see {!Page.browse}); the
          REST client of this browser carries its own copy *)
  net_prng : Prng.t;  (** backoff jitter for page-load retries *)
  net_stats : Retry.stats;  (** attempt/retry counters for page loads *)
}

(** [retry] is the resilience policy for all network traffic (REST and
    page loads; default {!Retry.default}). [net_fallback] enables the
    §2.4-style graceful degradation: successful REST documents are
    copied into {!local_store} (keyed by URI, under the document's
    origin) and served from there when retries are exhausted — off by
    default so the zero-fault behaviour of existing pages (e.g. what
    [browser:storeList()] shows) is unchanged. [seed] drives the
    backoff-jitter PRNGs. *)
val create :
  ?cache:bool ->
  ?policy:Origin.policy ->
  ?uppercase_tags:bool ->
  ?navigator:Bom.navigator ->
  ?screen:Bom.screen ->
  ?clock:Virtual_clock.t ->
  ?http:Http_sim.t ->
  ?href:string ->
  ?retry:Retry.policy ->
  ?net_fallback:bool ->
  ?seed:int ->
  unit ->
  t

(** Install a document into a window (re-homes the render observer
    when it is the focused top window's document). *)
val set_document : t -> Windows.t -> Dom.node -> unit

val document : t -> Dom.node

(** Chronological list of alert messages. *)
val alerts : t -> string list

val clear_alerts : t -> unit

(** Render the page through {!Renderer.render_cached}: when an event
    changed nothing (all listeners skipped by reactive dispatch), the
    re-render is a memo lookup; otherwise only the blocks on the paths
    the event wrote are re-rendered. *)
val render : ?options:Renderer.options -> t -> string

(** {1 Event dispatch and user simulation} *)

(** Dispatch an event synchronously, accounting the virtual time the
    listeners consume as UI-blocked time. *)
val dispatch :
  t -> ?detail:(string * string) list -> target:Dom.node -> string -> unit

(** Simulate a user click ([onclick] + [click]). *)
val click : t -> Dom.node -> unit

(** Simulate typing into an input: appends to its [value] attribute one
    character at a time, firing [onkeyup] per keystroke (the AJAX
    suggest workload of §4.4). *)
val type_text : t -> Dom.node -> string -> unit

(** Run queued asynchronous work (e.g. [behind] calls) to completion. *)
val run : t -> unit

(** Point the observability layer's clock at this browser's virtual
    clock, so span timestamps and durations are in virtual seconds. *)
val connect_obs : t -> unit

(** {1 The XQuery host for a window}

    Wires the paper's extension expressions to this browser: events to
    the DOM event tables, [behind] to the event loop, styles to the
    [style] attribute, blocks [fn:doc]/[fn:put] (§4.2.1), exposes the
    virtual clock as the dynamic-context date/time.

    The [behind] listener observes XMLHttpRequest-style readyState
    signals: [1] when the computation is scheduled, then [4] with the
    result on success — or [0] (the XHR "error" state) with the error
    message as the second argument when the computation fails (e.g.
    retries exhausted on a flaky network). The failure is also recorded
    in [script_errors], and the event loop keeps dispatching. *)
val host_for : t -> Windows.t -> Xquery.Dynamic_context.host
