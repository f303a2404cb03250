open Xmlb
module SC = Xquery.Static_context
module I = Xdm_item

let namespace = Qname.Ns.browser

(* Live materialized views, newest first; old ones are released so the
   observer table does not grow without bound. *)
type state = { mutable views : Windows.view list }

let max_live_views = 8

let push_view st v =
  st.views <- v :: st.views;
  let rec trim i = function
    | [] -> []
    | v :: rest ->
        if i >= max_live_views then begin
          Windows.release v;
          trim (i + 1) rest
        end
        else v :: trim (i + 1) rest
  in
  st.views <- trim 1 st.views

let err fmt = Xq_error.raise_error Xq_error.security fmt

let install (b : Browser.t) (window : Windows.t) sctx =
  SC.declare_namespace sctx ~prefix:"browser" ~uri:namespace;
  SC.block_function sctx ~uri:Qname.Ns.fn ~local:"doc";
  SC.block_function sctx ~uri:Qname.Ns.fn ~local:"put";
  let st = { views = [] } in
  let accessor () = Windows.origin window in
  let materialize_top () =
    let v =
      Windows.materialize ~policy:b.Browser.policy
        ~on_navigate:(Browser.navigate b)
        ~accessor:(accessor ())
        (Windows.top window)
    in
    push_view st v;
    v
  in
  let register local arity f =
    SC.register_external sctx (Qname.make ~uri:namespace local) ~arity f
  in
  let str args n = I.sequence_string (List.nth args n) in

  register "top" 0 (fun _ _ ->
      [ I.Node (Windows.view_root (materialize_top ())) ]);
  register "self" 0 (fun _ _ ->
      let v = materialize_top () in
      match Windows.node_of_window v window with
      | Some n -> [ I.Node n ]
      | None -> []);
  register "document" 1 (fun _ args ->
      match List.nth args 0 with
      | [ I.Node n ] -> (
          (* exact-node lookup: a cross-origin <window/> shell is not
             registered, and must not fall back to an enclosing
             accessible window *)
          let found =
            List.find_map (fun v -> Windows.window_at v n) st.views
          in
          match found with
          | Some w
            when Origin.allows b.Browser.policy ~accessor:(accessor ())
                   ~target:(Windows.origin w) ->
              [ I.Node w.Windows.document ]
          | Some _ | None -> [])
      | _ -> []);
  register "screen" 0 (fun _ _ -> [ I.Node (Bom.screen_to_xml b.Browser.screen) ]);
  register "navigator" 0 (fun _ _ ->
      [ I.Node (Bom.navigator_to_xml b.Browser.navigator) ]);

  (* dialogs *)
  register "alert" 1 (fun _ args ->
      b.Browser.alerts <- str args 0 :: b.Browser.alerts;
      []);
  register "prompt" 1 (fun _ _ ->
      [ I.Atomic (Xdm_atomic.String b.Browser.prompt_response) ]);
  register "confirm" 1 (fun _ _ ->
      [ I.Atomic (Xdm_atomic.Boolean b.Browser.confirm_response) ]);

  (* window functions *)
  register "windowOpen" 1 (fun _ args ->
      let href = str args 0 in
      let w =
        Windows.create
          ~name:(Printf.sprintf "window_%d" (List.length (Windows.top window).Windows.frames + 1))
          ~href ()
      in
      Windows.add_frame ~parent:(Windows.top window) w;
      (* a new window is at its href already, whether or not the
         server has a page there *)
      ignore (b.Browser.on_navigate w href ~commit:ignore);
      let v = materialize_top () in
      match Windows.node_of_window v w with
      | Some n -> [ I.Node n ]
      | None -> []);
  register "windowClose" 1 (fun _ args ->
      (match List.nth args 0 with
      | [ I.Node n ] -> (
          match List.find_map (fun v -> Windows.window_of_node v n) st.views with
          | Some w ->
              w.Windows.closed <- true;
              Windows.remove_frame w
          | None -> err "windowClose: not a window node")
      | _ -> err "windowClose expects a window node");
      []);
  let window_of_arg args =
    match List.nth args 0 with
    | [ I.Node n ] -> List.find_map (fun v -> Windows.window_at v n) st.views
    | _ -> None
  in
  let int_arg args n =
    match I.opt_atomic (List.nth args n) with
    | Some a -> (
        match Xdm_atomic.cast ~target:Xdm_atomic.T_integer a with
        | Xdm_atomic.Integer i -> i
        | _ -> 0)
    | None -> 0
  in
  register "windowMoveBy" 3 (fun _ args ->
      (match window_of_arg args with
      | Some w -> Windows.move_by w ~dx:(int_arg args 1) ~dy:(int_arg args 2)
      | None -> err "windowMoveBy: not a window node");
      []);
  register "windowMoveTo" 3 (fun _ args ->
      (match window_of_arg args with
      | Some w -> Windows.move_to w ~x:(int_arg args 1) ~y:(int_arg args 2)
      | None -> err "windowMoveTo: not a window node");
      []);

  (* history *)
  (* the page [n] steps through the history away is loaded, and the
     history moves once it is there *)
  let history_go n =
    Browser.navigate b window (Windows.history_target window n) ~commit:(fun () ->
        Windows.history_go window n)
  in
  register "historyBack" 0 (fun _ _ ->
      history_go (-1);
      []);
  register "historyForward" 0 (fun _ _ ->
      history_go 1;
      []);
  register "historyGo" 1 (fun _ args ->
      (match I.opt_atomic (List.nth args 0) with
      | Some (Xdm_atomic.Integer n) -> history_go n
      | _ -> err "historyGo expects an integer");
      []);

  (* client-side persistent storage (the Gears analogue, §2.4):
     per-origin, survives page loads, works offline *)
  register "storePut" 2 (fun _ args ->
      let name = str args 0 in
      (match List.nth args 1 with
      | [ I.Node n ] ->
          Local_store.put b.Browser.local_store ~origin:(accessor ()) ~name
            (Dom.clone n)
      | seq ->
          Local_store.put b.Browser.local_store ~origin:(accessor ()) ~name
            (Dom.of_string
               ("<value>" ^ Xml_escape.text (I.sequence_string seq) ^ "</value>")));
      []);
  register "storeGet" 1 (fun _ args ->
      match
        Local_store.get b.Browser.local_store ~origin:(accessor ()) ~name:(str args 0)
      with
      | Some doc -> [ I.Node doc ]
      | None -> []);
  register "storeDelete" 1 (fun _ args ->
      [
        I.Atomic
          (Xdm_atomic.Boolean
             (Local_store.delete b.Browser.local_store ~origin:(accessor ())
                ~name:(str args 0)));
      ]);
  register "storeList" 0 (fun _ _ ->
      List.map
        (fun name -> I.Atomic (Xdm_atomic.String name))
        (Local_store.list b.Browser.local_store ~origin:(accessor ())));
  register "online" 0 (fun _ _ ->
      [ I.Atomic (Xdm_atomic.Boolean b.Browser.online) ]);

  (* engine observability: a snapshot of the metrics registry as XML,
     so page code and tests can introspect performance counters with
     ordinary XPath (e.g. browser:stats()//counter[@name='eval.steps']);
     every count is a <counter>, the rest is state *)
  let document_listeners () =
    let doc = window.Windows.document in
    List.fold_left
      (fun n node -> n + Dom_event.listener_count node)
      0 (doc :: Dom.descendants doc)
  in
  register "stats" 0 (fun _ _ ->
      let el name attrs =
        Dom.create_element
          ~attrs:(List.map (fun (k, v) -> (Qname.make k, v)) attrs)
          (Qname.make name)
      in
      let root =
        el "stats"
          (("virtual-time", Printf.sprintf "%.6f" (Virtual_clock.now b.Browser.clock))
          :: ("trace-enabled", string_of_bool !Obs.Trace.enabled)
          :: List.map
               (fun (field, on) -> (field ^ "-enabled", string_of_bool on))
               (Ablation.fields Ablation.current))
      in
      let counters = el "counters" [] in
      Dom.fill counters ~attrs:[]
        (List.map
           (fun (name, v) -> el "counter" [ ("name", name); ("value", string_of_int v) ])
           (Obs.Metrics.counters ()));
      let hists = el "histograms" [] in
      Dom.fill hists ~attrs:[]
        (List.map
           (fun (name, h) ->
             el "histogram"
               [
                 ("name", name);
                 ("count", string_of_int h.Obs.Metrics.count);
                 ("sum", Printf.sprintf "%.9g" h.Obs.Metrics.sum);
                 ("min", Printf.sprintf "%.9g" h.Obs.Metrics.min);
                 ("max", Printf.sprintf "%.9g" h.Obs.Metrics.max);
               ])
           (Obs.Metrics.histograms ()));
      let spans =
        el "spans"
          [
            ("roots", string_of_int (List.length (Obs.Trace.roots ())));
            ("dropped", string_of_int (Obs.Trace.dropped ()));
          ]
      in
      let s = Xquery.Query_cache.stats Xquery.Engine.query_cache in
      let qc =
        el "query-cache"
          [
            ("hits", string_of_int s.Xquery.Query_cache.hits);
            ("misses", string_of_int s.Xquery.Query_cache.misses);
            ("evictions", string_of_int s.Xquery.Query_cache.evictions);
            ("entries", string_of_int s.Xquery.Query_cache.entries);
            ( "generation",
              string_of_int (Xquery.Query_cache.generation Xquery.Engine.query_cache) );
            ("cost-saved", string_of_int s.Xquery.Query_cache.cost_saved);
          ]
      in
      let re = el "reactive" [ ("listeners", string_of_int (document_listeners ())) ] in
      Dom.fill root ~attrs:[] [ counters; hists; spans; qc; re ];
      [ I.Node root ]);

  (* document write (the paper notes best practice is XDM updates) *)
  let body_of_document () =
    let doc = window.Windows.document in
    match Dom.get_elements_by_local_name doc "body" with
    | body :: _ -> body
    | [] -> (
        match Dom.children doc with
        | root :: _ -> root
        | [] ->
            let html = Dom.create_element (Qname.make "html") in
            Dom.append_child ~parent:doc html;
            html)
  in
  register "write" 1 (fun _ args ->
      Dom.append_child ~parent:(body_of_document ()) (Dom.create_text (str args 0));
      []);
  register "writeln" 1 (fun _ args ->
      let body = body_of_document () in
      Dom.append_child ~parent:body (Dom.create_text (str args 0));
      Dom.append_child ~parent:body (Dom.create_element (Qname.make "br"));
      [])
