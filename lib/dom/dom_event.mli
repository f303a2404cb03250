(** DOM Level 3 events: registration, capture/target/bubble dispatch.

    The paper's event extension ([on event ... attach listener ...],
    §4.3) and JavaScript's [addEventListener] both compile down to this
    module. A node's listeners live on the node (in its {!Dom.slot}):
    they survive detaching and re-inserting the node, are not copied by
    {!Dom.clone}, and are freed with the node — events in the document
    no longer reach a listener inside a removed subtree, and a replaced
    document takes its listeners with it. *)

type phase = Capturing | At_target | Bubbling

type event = {
  event_type : string;  (** e.g. ["onclick"], ["stateChanged"] *)
  target : Dom.node;
  mutable current_target : Dom.node option;
  mutable phase : phase;
  mutable propagation_stopped : bool;
  mutable default_prevented : bool;
  detail : (string * string) list;
      (** event properties, e.g. [("button", "1"); ("altKey", "false")];
          exposed to XQuery as children of the event node (§4.3.2) *)
  payload : Dom.node option;
      (** structured payload, e.g. an async call result (§4.4) *)
}

val make_event :
  ?detail:(string * string) list ->
  ?payload:Dom.node ->
  event_type:string ->
  target:Dom.node ->
  unit ->
  event

val stop_propagation : event -> unit
val prevent_default : event -> unit

(** One registration. Per-registration state of the layers above (the
    reactive memo of an XQuery listener) lives in the callback's
    closure, and goes away with the registration. *)
type listener_id

(** [add_listener node ~event_type ~capture ~name f] registers [f].
    [name] identifies a named listener (an XQuery function QName) so
    the same function can later be detached; adding a listener with the
    same [name], [event_type] and [capture] replaces the old one, which
    matches DOM semantics of registering the same function twice. *)
val add_listener :
  Dom.node ->
  event_type:string ->
  ?capture:bool ->
  ?name:string ->
  (event -> unit) ->
  listener_id

val remove_listener : listener_id -> unit

(** Detach by name (paper's [detach listener] syntax). Returns the
    number of listeners removed. *)
val remove_named_listener :
  Dom.node -> event_type:string -> name:string -> int

(** Number of listeners currently attached to a node. *)
val listener_count : Dom.node -> int

(** Dispatch an event through capture, target and bubble phases along
    the ancestor chain of [event.target]. Returns [not default_prevented]. *)
val dispatch : event -> bool

(** Convenience: build and dispatch. *)
val fire :
  ?detail:(string * string) list ->
  ?payload:Dom.node ->
  event_type:string ->
  target:Dom.node ->
  unit ->
  bool

(** Listener invocations: the registry counter [dom_event.invocations]. *)
val invocation_count : unit -> int
