open Xmlb
module SC = Xquery.Static_context
module DC = Xquery.Dynamic_context

type script_engine =
  Browser.t -> Windows.t -> script_element:Dom.node -> source:string -> unit

let engines : (string, script_engine) Hashtbl.t = Hashtbl.create 4

let register_script_engine ~script_type engine =
  Hashtbl.replace engines (String.lowercase_ascii script_type) engine

(* per-window page state: one static + dynamic context shared by all
   XQuery scripts of the page (prolog accumulates, Fig. 1), kept on the
   window until the next load *)
type page_state = { static : SC.t; mutable ctx : DC.t }
type Windows.script_context += Xquery_page of page_state

let page_state window =
  List.find_map
    (function Xquery_page st -> Some st | _ -> None)
    window.Windows.scripts

let xquery_context window = Option.map (fun st -> st.ctx) (page_state window)

let fresh_state (b : Browser.t) window =
  let static = Xquery.Engine.default_static () in
  Browser_functions.install b window static;
  Rest.install b.Browser.rest static;
  SC.set_module_resolver static
    (Web_service.module_resolver ~retry:b.Browser.retry ~prng:b.Browser.net_prng
       b.Browser.http);
  let host = Browser.host_for b window in
  let ctx = DC.create ~host static in
  let ctx =
    DC.with_focus ctx (Xdm_item.Node window.Windows.document) ~position:1 ~size:1
  in
  let st = { static; ctx } in
  (* The higher-order-function fallback of the paper's §5.1 ("as Zorba
     does not allow to modify the XQuery grammar, we use high-order
     functions to bind events and handle styles instead of the syntax
     suggested in this paper"). Both styles coexist here; the T5 bench
     compares them. *)
  let resolve_listener args n =
    let name = Xdm_item.sequence_string (List.nth args n) in
    let qn = Qname.of_string name in
    let qn =
      match qn.Qname.prefix with
      | None -> Qname.with_uri qn (Some Qname.Ns.local)
      | Some p -> (
          match Qname.Env.lookup (SC.ns_env static) p with
          | Some uri -> Qname.with_uri qn (Some uri)
          | None -> qn)
    in
    qn
  in
  let register local arity f =
    SC.register_external static
      (Qname.make ~uri:Browser_functions.namespace local)
      ~arity f
  in
  register "addEventListener" 3 (fun _ args ->
      let targets = List.nth args 0 in
      let event_type = Xdm_item.sequence_string (List.nth args 1) in
      let listener = Xquery.Eval.make_listener st.ctx (resolve_listener args 2) in
      host.DC.attach ~event_type ~targets ~listener;
      []);
  register "removeEventListener" 3 (fun _ args ->
      let targets = List.nth args 0 in
      let event_type = Xdm_item.sequence_string (List.nth args 1) in
      host.DC.detach ~event_type ~targets ~name:(resolve_listener args 2);
      []);
  register "dispatchEvent" 2 (fun _ args ->
      let targets = List.nth args 0 in
      let event_type = Xdm_item.sequence_string (List.nth args 1) in
      host.DC.trigger ~event_type ~targets;
      []);
  register "setStyle" 3 (fun _ args ->
      let prop = Xdm_item.sequence_string (List.nth args 1) in
      let v = Xdm_item.sequence_string (List.nth args 2) in
      List.iter
        (function
          | Xdm_item.Node n -> host.DC.set_style n prop v
          | Xdm_item.Atomic _ -> ())
        (List.nth args 0);
      []);
  (* deferred execution on the event loop — the Gears-style background
     work the paper contrasts with (§2.4 mentions threading); the named
     function runs as its own task after [delay] virtual milliseconds *)
  register "setTimeout" 2 (fun _ args ->
      let listener = Xquery.Eval.make_listener st.ctx (resolve_listener args 0) in
      let delay = 
        match Xdm_item.opt_atomic (List.nth args 1) with
        | Some a -> (
            match Xdm_atomic.cast ~target:Xdm_atomic.T_double a with
            | Xdm_atomic.Double f -> f /. 1000.
            | _ -> 0.)
        | None -> 0.
      in
      Virtual_clock.schedule b.Browser.clock ~delay (fun () ->
          listener.DC.invoke (fun () -> []));
      []);
  register "getStyle" 2 (fun _ args ->
      let prop = Xdm_item.sequence_string (List.nth args 1) in
      match List.nth args 0 with
      | Xdm_item.Node n :: _ -> (
          match host.DC.get_style n prop with
          | Some v -> [ Xdm_item.Atomic (Xdm_atomic.String v) ]
          | None -> [])
      | _ -> []);
  window.Windows.scripts <- Xquery_page st :: window.Windows.scripts;
  st

let state_for b window =
  match page_state window with Some st -> st | None -> fresh_state b window

(* run one XQuery script source in the window's page context *)
let run_xquery b window source =
  Obs.Trace.with_span "page.script" @@ fun () ->
  let st = state_for b window in
  (* this script's declarations, functions and globals join the
     earlier scripts', or, if its compile or an initializer raises,
     none of them does *)
  let compiled = Xquery.Engine.add_script st.ctx source in
  let result =
    Obs.Trace.with_span "engine.eval" @@ fun () ->
    match compiled.Xquery.Engine.prog.Xquery.Ast.body with
    | Some _ -> Xquery.Engine.eval_body st.ctx compiled
    | None ->
        (* Zorba workaround fidelity (§5.1): page code with no body
           runs local:main() when the page is loaded, if it declares
           one *)
        let main = Qname.make ~uri:Qname.Ns.local "main" in
        if
          List.exists
            (function
              | Xquery.Ast.P_function { fname; params = []; _ } -> Qname.equal fname main
              | _ -> false)
            compiled.Xquery.Engine.decls
        then Xquery.Engine.call st.ctx main []
        else []
  in
  Xquery.Pul.apply st.ctx.DC.pul;
  result

(* ---------------- inline on* handlers ---------------- *)

(* The paper's §4.4 example writes onkeyup="local:showHint(value)"
   where [value] means the control's current value. We compile handler
   attributes as XQuery with the element as context item, after a
   textual shim replacing the bare token [value] with [data(@value)]. *)
let inline_providers :
    (Browser.t ->
    Windows.t ->
    element:Dom.node ->
    event_type:string ->
    source:string ->
    bool)
    list
    ref =
  ref []

let register_inline_handler_provider p = inline_providers := !inline_providers @ [ p ]

let value_token = Str.regexp "\\([^-A-Za-z0-9_$@/:.]\\|^\\)value\\([^-A-Za-z0-9_(]\\|$\\)"

let shim_handler_source src =
  Str.global_replace value_token "\\1data(@value)\\2" src

(* [s] starts with [lower] from byte [i] on, ASCII letters compared
   without case *)
let rec starts_ci s lower i =
  i = String.length lower
  || (i < String.length s && Char.lowercase_ascii s.[i] = lower.[i] && starts_ci s lower (i + 1))

(* The page's XQuery state is taken at the first handler compiled as
   XQuery, so a page without one keeps none. The walk makes its two
   callbacks once: the attribute callback reads the element from
   [current], so visiting an element allocates nothing. *)
let wire_inline_handlers b window =
  let st = lazy (state_for b window) in
  let current = ref window.Windows.document in
  let wire { Qname.local; _ } source =
    if
      String.length local > 2
      && starts_ci local "on" 0
      && String.length (String.trim source) > 0
    then
      let el = !current in
      let event_type = String.lowercase_ascii local in
      if List.exists (fun p -> p b window ~element:el ~event_type ~source) !inline_providers
      then ()
      else
        let src = shim_handler_source source in
        let st = Lazy.force st in
        match
          Xquery.Engine.expression st.static (Xquery.Parser.parse_expression st.static src)
        with
        | handler ->
            ignore
              (Dom_event.add_listener el ~event_type
                 ~name:("inline:" ^ string_of_int (Dom.id el) ^ ":" ^ event_type)
                 (fun _e ->
                   let ctx = DC.with_focus st.ctx (Xdm_item.Node el) ~position:1 ~size:1 in
                   ignore (Xquery.Eval.run_listener ctx (fun () -> handler ctx))))
        | exception Xq_error.Error _ ->
            (* not XQuery (e.g. legacy JS snippet with no JS
               engine loaded): ignore, like an unknown language *)
            ()
  in
  Dom.iter_elements
    (fun el _ ->
      current := el;
      Dom.iter_attributes wire el)
    window.Windows.document

(* ---------------- page loading ---------------- *)

(* page fetches go through the browser's resilience policy: on a flaky
   network a navigation is retried with backoff before giving up *)
let fetch_page (b : Browser.t) uri =
  Retry.fetch ~policy:b.Browser.retry ~prng:b.Browser.net_prng
    ~stats:b.Browser.net_stats b.Browser.http uri

let script_elements doc =
  let found = ref [] in
  Dom.iter_elements
    (fun n { Qname.local; _ } ->
      if String.length local = 6 && starts_ci local "script" 0 then found := n :: !found)
    doc;
  List.rev !found

let script_type el =
  String.lowercase_ascii
    (Option.value ~default:"text/javascript" (Dom.attribute_local el "type"))

let script_source el = Dom.string_value el

let is_xquery_type ty = ty = "text/xquery" || ty = "text/xqueryp" || ty = "application/xquery"

let run_script b window el =
  let ty = script_type el in
  let source = script_source el in
  if String.trim source = "" then ()
  else if is_xquery_type ty then (
    (* a failing script logs to the error console and the page keeps
       loading, as in a real browser; other engines log their own *)
    try ignore (run_xquery b window source)
    with Xq_error.Error e ->
      b.Browser.script_errors <- Xq_error.to_string e :: b.Browser.script_errors)
  else
    match Hashtbl.find_opt engines ty with
    | Some engine -> engine b window ~script_element:el ~source
    | None ->
        Logs.debug (fun m -> m "no script engine for %S; script skipped" ty)

let parse_html (b : Browser.t) html =
  Obs.Trace.with_span "page.parse-html" (fun () ->
      Dom.of_string ~options:{ Xml_parser.uppercase_tags = b.Browser.uppercase_tags } html)

let rec load ?window (b : Browser.t) html =
  Obs.Trace.with_span "page.load" @@ fun () ->
  let window = match window with Some w -> w | None -> b.Browser.top_window in
  load_doc b window (parse_html b html)

(* install a parsed page in [window] and run its scripts *)
and load_doc b window doc =
  (* navigations triggered from scripts re-enter the loader: the window
     moves only once its new page has been fetched and parsed; a page
     that cannot be fetched (see [Browser.navigate]) or does not parse
     is a script error (SEBR0404) and leaves the window's href,
     history, document and scripts as they were *)
  b.Browser.on_navigate <-
    (fun w href ~commit ->
      let resp = fetch_page b href in
      if resp.Http_sim.status = 200 then
        Obs.Trace.with_span "page.load" (fun () ->
            match parse_html b resp.Http_sim.body with
            | doc ->
                commit ();
                load_doc b w doc
            | exception Xml_parser.Parse_error { line; col; message } ->
                Xq_error.raise_error "SEBR0404" "cannot load %s: line %d, col %d: %s" href
                  line col message);
      resp.Http_sim.status);
  (* the old page's script contexts go with its document *)
  window.Windows.scripts <- [];
  Browser.set_document b window doc;
  (* JavaScript first, then XQuery (§4.1) *)
  let js, xquery =
    List.partition (fun el -> not (is_xquery_type (script_type el))) (script_elements doc)
  in
  List.iter (run_script b window) (js @ xquery);
  wire_inline_handlers b window

and browse ?window (b : Browser.t) uri =
  Obs.Trace.with_span ~attrs:[ ("uri", uri) ] "page.browse" @@ fun () ->
  let window = match window with Some w -> w | None -> b.Browser.top_window in
  let resp = fetch_page b uri in
  if resp.Http_sim.status <> 200 then
    Xq_error.raise_error "SEBR0404" "cannot load %s: status %d" uri
      resp.Http_sim.status
  else
    Obs.Trace.with_span "page.load" @@ fun () ->
    (* the window moves once its page has been fetched and parsed *)
    let doc = parse_html b resp.Http_sim.body in
    Windows.navigate window uri;
    load_doc b window doc
