module DC = Xquery.Dynamic_context

type t = {
  clock : Virtual_clock.t;
  http : Http_sim.t;
  rest : Rest.client;
  top_window : Windows.t;
  screen : Bom.screen;
  navigator : Bom.navigator;
  policy : Origin.policy;
  uppercase_tags : bool;
  mutable alerts : string list;
  mutable prompt_response : string;
  mutable confirm_response : bool;
  mutable render_count : int;
  mutable ui_blocked : float;
  mutable events_dispatched : int;
  mutable doc_observer : Dom.observer_id option;
  mutable on_navigate : Windows.t -> string -> commit:(unit -> unit) -> int;
  local_store : Local_store.t;
  mutable online : bool;
  mutable script_errors : string list;
  mutable retry : Retry.policy;
  net_prng : Prng.t;
  net_stats : Retry.stats;
}

let create ?(cache = false) ?(policy = Origin.Same_origin) ?(uppercase_tags = false)
    ?(navigator = Bom.internet_explorer) ?(screen = Bom.default_screen) ?clock
    ?http ?(href = "http://localhost/") ?(retry = Retry.default)
    ?(net_fallback = false) ?(seed = 0) () =
  let clock = match clock with Some c -> c | None -> Virtual_clock.create () in
  let http = match http with Some h -> h | None -> Http_sim.create clock in
  let rest = Rest.make_client ~cache ~retry ~seed http in
  let t =
  {
    clock;
    http;
    rest;
    top_window = Windows.create ~name:"top_window" ~href ();
    screen;
    navigator;
    policy;
    uppercase_tags;
    alerts = [];
    prompt_response = "";
    confirm_response = true;
    render_count = 0;
    ui_blocked = 0.;
    events_dispatched = 0;
    doc_observer = None;
    on_navigate =
      (fun _ _ ~commit ->
        commit ();
        200);
    local_store = Local_store.create ();
    online = true;
    script_errors = [];
    retry;
    net_prng = Prng.create ~seed:(seed + 1);
    net_stats = Retry.make_stats ();
  }
  in
  Rest.set_online_guard rest (fun () -> t.online);
  (* graceful degradation (§2.4): back successful REST fetches into the
     per-origin Gears-style store, keyed by URI under the document's
     own origin, and serve them back when retries are exhausted *)
  if net_fallback then
    Rest.set_fallback rest
      ~put:(fun ~uri doc ->
        Local_store.put t.local_store ~origin:(Origin.of_uri uri) ~name:uri doc)
      ~get:(fun ~uri ->
        Local_store.get t.local_store ~origin:(Origin.of_uri uri) ~name:uri);
  t

(* a navigation of [w] to [href] through the loader: SEBR0404 when the
   server has no page there, and then [w] is as it was *)
let navigate t w href ~commit =
  let status = t.on_navigate w href ~commit in
  if status <> 200 then Xq_error.raise_error "SEBR0404" "cannot load %s: status %d" href status

let set_document t window doc =
  window.Windows.document <- doc;
  window.Windows.last_modified <- Some (Virtual_clock.epoch_seconds t.clock);
  if window == t.top_window then begin
    Option.iter Dom.unobserve t.doc_observer;
    t.doc_observer <-
      Some
        (Dom.observe ~root:doc (fun _ ->
             t.render_count <- t.render_count + 1;
             window.Windows.last_modified <- Some (Virtual_clock.epoch_seconds t.clock)))
  end

let document t = t.top_window.Windows.document
let alerts t = List.rev t.alerts

(* memoized: re-rendering a page no event actually changed is a lookup;
   the text is copied out only when read *)
let render ?options t = Renderer.render_cached ?options (document t)

let events = Obs.Metrics.counter "browser.events"

let dispatch t ?(detail = []) ~target event_type =
  let t0 = Virtual_clock.now t.clock in
  t.events_dispatched <- t.events_dispatched + 1;
  Obs.Metrics.incr events;
  let fire () = ignore (Dom_event.fire ~detail ~event_type ~target ()) in
  if !Obs.Trace.enabled then
    Obs.Trace.with_span ~attrs:[ ("event", event_type) ] "browser.dispatch" fire
  else fire ();
  t.ui_blocked <- t.ui_blocked +. (Virtual_clock.now t.clock -. t0)

let click t node =
  dispatch t ~detail:[ ("button", "0"); ("altKey", "false") ] ~target:node "onclick";
  dispatch t ~target:node "click"

let value_qn = Xmlb.Qname.make "value"

let type_text t node text =
  String.iter
    (fun c ->
      let current = Option.value ~default:"" (Dom.attribute_local node "value") in
      Dom.set_attribute node value_qn (current ^ String.make 1 c);
      dispatch t
        ~detail:[ ("key", String.make 1 c) ]
        ~target:node "onkeyup")
    text

let run t =
  if !Obs.Trace.enabled then
    Obs.Trace.with_span "browser.event-loop" (fun () ->
        Virtual_clock.run_until_idle t.clock)
  else Virtual_clock.run_until_idle t.clock

(* give the observability layer the browser's notion of time, so span
   durations line up with the deterministic event loop *)
let connect_obs t = Obs.Trace.set_clock (fun () -> Virtual_clock.now t.clock)

let host_for t window =
  let default = DC.default_host in
  {
    default with
    DC.attach_behind =
      (fun ~event_type ~computation ~listener ->
        ignore event_type;
        (* non-blocking: the computation runs as its own event-loop
           task; signals mimic XMLHttpRequest readyState (§4.4) *)
        Virtual_clock.schedule t.clock ~delay:0. (fun () ->
            listener.DC.invoke (fun () ->
                [ [ Xdm_item.Atomic (Xdm_atomic.Integer 1) ]; [] ]);
            match computation () with
            | result ->
                Virtual_clock.schedule t.clock ~delay:0. (fun () ->
                    listener.DC.invoke (fun () ->
                        [ [ Xdm_item.Atomic (Xdm_atomic.Integer 4) ]; result ]))
            | exception Xq_error.Error e ->
                (* a failing async call must not kill the event loop:
                   record it like a browser's network error console and
                   signal the listener with readyState 0 (the XHR error
                   state) carrying the message, so page code can react
                   instead of silently never reaching readyState 4 *)
                let msg = Xq_error.to_string e in
                t.script_errors <- msg :: t.script_errors;
                Virtual_clock.schedule t.clock ~delay:0. (fun () ->
                    listener.DC.invoke (fun () ->
                        [
                          [ Xdm_item.Atomic (Xdm_atomic.Integer 0) ];
                          [ Xdm_item.Atomic (Xdm_atomic.String msg) ];
                        ]))));
    DC.trigger =
      (fun ~event_type ~targets ->
        List.iter
          (function
            | Xdm_item.Node n -> dispatch t ~target:n event_type
            | Xdm_item.Atomic _ -> ())
          targets);
    DC.doc =
      (fun uri ->
        Xq_error.raise_error Xq_error.security
          "fn:doc(%S) is blocked in the browser (use rest:get)" uri);
    DC.doc_available = (fun _ -> false);
    DC.put =
      (fun _ uri ->
        Xq_error.raise_error Xq_error.security
          "fn:put to %S is blocked in the browser" uri);
    DC.now = (fun () -> Virtual_clock.to_datetime t.clock);
    DC.alert =
      (fun msg ->
        ignore window;
        t.alerts <- msg :: t.alerts);
    DC.listener_error = (fun m -> t.script_errors <- m :: t.script_errors);
  }
