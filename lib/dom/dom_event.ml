type phase = Capturing | At_target | Bubbling

type event = {
  event_type : string;
  target : Dom.node;
  mutable current_target : Dom.node option;
  mutable phase : phase;
  mutable propagation_stopped : bool;
  mutable default_prevented : bool;
  detail : (string * string) list;
  payload : Dom.node option;
}

let make_event ?(detail = []) ?payload ~event_type ~target () =
  {
    event_type;
    target;
    current_target = None;
    phase = At_target;
    propagation_stopped = false;
    default_prevented = false;
    detail;
    payload;
  }

let stop_propagation e = e.propagation_stopped <- true
let prevent_default e = e.default_prevented <- true

type listener = {
  node : Dom.node;
  event_type : string;
  capture : bool;
  lname : string option;
  callback : event -> unit;
}

type listener_id = listener

(* A node's listeners, in registration order, live in its slot: they
   go away with the node. *)
type Dom.slot += Listeners of listener list

let invocations = Obs.Metrics.counter "dom_event.invocations"

let node_listeners node =
  match Dom.slot node with Listeners ls -> ls | _ -> []

let set_node_listeners node ls =
  Dom.set_slot node (match ls with [] -> Dom.Empty | ls -> Listeners ls)

let add_listener node ~event_type ?(capture = false) ?name callback =
  let l = { node; event_type; capture; lname = name; callback } in
  let keep =
    match name with
    | None -> node_listeners node
    | Some n ->
        List.filter
          (fun o ->
            not
              (o.lname = Some n
              && String.equal o.event_type event_type
              && o.capture = capture))
          (node_listeners node)
  in
  set_node_listeners node (keep @ [ l ]);
  l

let remove_listener l =
  set_node_listeners l.node (List.filter (fun o -> o != l) (node_listeners l.node))

let remove_named_listener node ~event_type ~name =
  let keep, drop =
    List.partition
      (fun l -> not (l.lname = Some name && String.equal l.event_type event_type))
      (node_listeners node)
  in
  set_node_listeners node keep;
  List.length drop

let listener_count node = List.length (node_listeners node)

let invoke_phase event node =
  event.current_target <- Some node;
  let matching =
    List.filter
      (fun l ->
        String.equal l.event_type event.event_type
        &&
        match event.phase with
        | Capturing -> l.capture
        | At_target -> true
        | Bubbling -> not l.capture)
      (node_listeners node)
  in
  List.iter
    (fun l ->
      if not event.propagation_stopped then begin
        Obs.Metrics.incr invocations;
        l.callback event
      end)
    matching

let dispatch event =
  let chain = Dom.ancestors event.target in
  (* nearest-first per Dom.ancestors; capture goes root -> target *)
  let top_down = List.rev chain in
  event.phase <- Capturing;
  List.iter
    (fun n -> if not event.propagation_stopped then invoke_phase event n)
    top_down;
  if not event.propagation_stopped then begin
    event.phase <- At_target;
    invoke_phase event event.target
  end;
  event.phase <- Bubbling;
  List.iter
    (fun n -> if not event.propagation_stopped then invoke_phase event n)
    chain;
  not event.default_prevented

let fire ?detail ?payload ~event_type ~target () =
  dispatch (make_event ?detail ?payload ~event_type ~target ())

let invocation_count () = Obs.Metrics.value invocations
