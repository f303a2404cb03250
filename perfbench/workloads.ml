(* The three workloads. Each runs a closed loop of ops against the
   public API of the libraries, times every op with the monotonic
   clock, and checks its output against the values [Gen] computed. In
   the traced run the same ops run with spans around each public call
   and the engine's counters switched on, and the per-layer metrics are
   derived from those.

   A repetition does a fixed amount of work per second of its budget
   (the [*_per_second] constants, set so that it lasts at most the
   budget on a 2-core x86-64 machine): a change that makes ops faster
   then finishes sooner instead of doing more navigations, so heap
   growth and tail latency are compared on the same work. *)

module B = Xqib.Browser
module P = Xqib.Page
module AS = Appserver.App_server

let span = Spans.span

type outcome = {
  samples : float array;  (** op latency, ms, in op order *)
  speed : float array;  (** speed-probe time after each op, ms (untraced run) *)
  gaps : float array;
      (** loop time before each op and after the last, ms, outside
          checks and probes: bookkeeping, or untimed client work on
          fleet *)
  done_ops : int;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failure messages *)
  loop_ms : float;  (** wall time of the op loop *)
  outside_ms : float;  (** part of [loop_ms] spent in checks and probes *)
  ops_nested : bool;
      (** ops run inside a call the loop does not time (fleet): the
          loop also covers untimed client work *)
  ops_per_s : float;
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  counters : Spans.counters;  (** engine counter changes over the loop (traced run) *)
}

(* ------------------------------------------------------------------ *)
(* shared bookkeeping                                                  *)

type run = {
  n : int;
  lat : float array;
  gap : float array;
  speed : float array;  (** [speed_probe] time after each op, ms *)
  kind : string array;
  mutable failed : int;
  mutable failures : string list;
  mutable outside_ns : int64;
  mutable last_end : int64;  (** end of the previous op's check *)
  mutable counts : Spans.counters;  (** counter changes over the loop (traced) *)
}

let new_run n =
  {
    n;
    lat = Array.make n 0.;
    gap = Array.make (n + 1) 0.;
    speed = Array.make n 0.;
    kind = Array.make n "";
    failed = 0;
    failures = [];
    outside_ns = 0L;
    last_end = 0L;
    counts = [];
  }

let fail r i msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 8 then
    r.failures <- r.failures @ [ Printf.sprintf "op %d: %s" i msg ]

(* time a stretch of loop work that is not part of any op *)
let outside r f =
  let t0 = Spans.now_ns () in
  let v = f () in
  r.outside_ns <- Int64.add r.outside_ns (Int64.sub (Spans.now_ns ()) t0);
  v

let count r k = Option.value ~default:0 (List.assoc_opt k r.counts)

(* A fixed amount of short-lived allocation, timed after every op of an
   untraced run. It shares no code with the libraries, so its time
   tracks only the machine: allocation-heavy code like the engine's
   slows by up to 2x when other tenants load the memory system, for
   spells of seconds to minutes, and this probe slows with it. Each pass
   starts on an empty minor heap and fills less than half of it, so no
   collection runs inside the timed pass, and the untimed first pass
   writes the same cells, so the op before does not decide what is in
   the cache. *)
let speed_probe () =
  let pass () =
    Gc.minor ();
    let t0 = Spans.now_ns () in
    let acc = ref 0 in
    for i = 1 to 40_000 do
      let cell = Sys.opaque_identity (i, i) in
      acc := !acc + fst cell
    done;
    ignore (Sys.opaque_identity !acc);
    Spans.ms_of_ns (Int64.sub (Spans.now_ns ()) t0)
  in
  ignore (pass ());
  pass ()

(* Run op [i]: time it, then check it. [op] does the op and returns the
   function that reads its observation, which must equal [expect]. An
   op fails if it raises, logs a script error, or observes anything
   else. *)
let step r (b : B.t option) i ~kind ~expect op =
  Spans.current_op := i;
  r.kind.(i) <- kind;
  let errors0 = match b with Some b -> List.length b.B.script_errors | None -> 0 in
  let t0 = Spans.now_ns () in
  r.gap.(i) <- Spans.ms_of_ns (Int64.sub t0 r.last_end);
  let result = try Ok (span ~layer:"op" ("op." ^ kind) op) with e -> Error e in
  r.lat.(i) <- Spans.ms_of_ns (Int64.sub (Spans.now_ns ()) t0);
  outside r (fun () ->
      match result with
      | Error e -> fail r i (kind ^ " raised " ^ Printexc.to_string e)
      | Ok observe -> (
          match b with
          | Some b when List.length b.B.script_errors > errors0 ->
              fail r i (kind ^ " logged a script error: " ^ List.hd b.B.script_errors)
          | _ -> (
              match observe () with
              | got when got = expect -> ()
              | got -> fail r i (Printf.sprintf "%s: expected %S, got %S" kind expect got)
              | exception e -> fail r i (kind ^ " check raised " ^ Printexc.to_string e))));
  if not !Spans.enabled then r.speed.(i) <- outside r speed_probe;
  r.last_end <- Spans.now_ns ()

(* Run the op loop [f], keeping the engine counters' changes over it
   (the traced run's probes make no counted calls). *)
let counted r f =
  let c0 = Spans.snapshot () in
  let t0 = Spans.now_ns () in
  r.last_end <- t0;
  let v = f () in
  let t1 = Spans.now_ns () in
  r.gap.(r.n) <- Spans.ms_of_ns (Int64.sub t1 r.last_end);
  let loop_ns = Int64.sub t1 t0 in
  r.counts <- Spans.diff c0 (Spans.snapshot ());
  (v, loop_ns)

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let reactive_counts () =
  let s = Xquery.Reactive.counter_stats () in
  (List.assoc "skips" s, List.assoc "reruns" s)

(* Global state read before the loop, for the per-layer deltas. *)
type before = {
  minor_words : float;
  majors : int;
  reactive : int * int;
  invocations : int;
  requests : int;
  query_cache : Xquery.Query_cache.stats;
}

let before http =
  let gc = Gc.quick_stat () in
  {
    minor_words = gc.Gc.minor_words;
    majors = gc.Gc.major_collections;
    reactive = reactive_counts ();
    invocations = Dom_event.invocation_count ();
    requests = Http_sim.total_requests http;
    query_cache = Xquery.Query_cache.stats Xquery.Engine.query_cache;
  }

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Per-layer metrics, from spans, counters and global statistics. Times
   are self times per op; a metric whose calls the workload does not
   make reads 0. *)
let layers r http (b0 : before) ~probes ~extra =
  let per_op x = x /. float_of_int r.n in
  let per_op_i x = per_op (float_of_int x) in
  let selfs = Spans.self_times !Spans.recorded in
  let self name = per_op (Spans.self_ms_of selfs name) in
  let build_us_per_node keep =
    (* probes by nodes built, equal sizes in op order; [keep] picks a
       tenth of them *)
    let sorted =
      Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev probes))
    in
    let n = Array.length sorted in
    let tenth = max 1 (n / 10) in
    let nodes = ref 0 and ns = ref 0L in
    Array.iteri
      (fun i (k, t) ->
        if keep ~i ~n ~tenth then (
          nodes := !nodes + k;
          ns := Int64.add !ns t))
      sorted;
    if !nodes = 0 then 0. else Int64.to_float !ns /. 1e3 /. float_of_int !nodes
  in
  let skips, reruns = reactive_counts () in
  let qc = Xquery.Query_cache.stats Xquery.Engine.query_cache in
  let compile = Xquery.Compile.stats () in
  let gc = Gc.quick_stat () in
  let parse = self "probe.Xml_parser.parse" and build = self "probe.Dom.of_tree" in
  let page_load = self "Page.load" in
  let kind_ms k =
    let sum = ref 0. and n = ref 0 in
    Array.iteri
      (fun i kind ->
        if kind = k then (
          sum := !sum +. r.lat.(i);
          incr n))
      r.kind;
    if !n = 0 then 0. else !sum /. float_of_int !n
  in
  [
    ("xmlb.parse_ms", parse);
    ("xmlb.sym_entries", float_of_int (Xmlb.Sym.size ()));
    ("dom.build_ms", build);
    ("dom.build_us_per_node.small", build_us_per_node (fun ~i ~n:_ ~tenth -> i < tenth));
    ("dom.build_us_per_node.large", build_us_per_node (fun ~i ~n ~tenth -> i >= n - tenth));
    ( "dom.index_rebuilds_per_op",
      per_op_i (count r "dom.accel.index.rebuild" + count r "dom.value_index.rebuild") );
    ("dom_event.invocations_per_op", per_op_i (Dom_event.invocation_count () - b0.invocations));
    ("xquery.compile_ms", self "probe.Engine.compile");
    ( "xquery.cache_hit_ratio",
      ratio
        (qc.Xquery.Query_cache.hits - b0.query_cache.hits)
        (qc.misses - b0.query_cache.misses) );
    ("xquery.eval_steps_per_op", per_op_i (count r "eval.steps"));
    ( "xquery.pul_prims_per_op",
      per_op_i
        (List.fold_left
           (fun acc (k, v) -> if String.starts_with ~prefix:"pul.prim." k then acc + v else acc)
           0 r.counts) );
    ("xquery.reactive_skip_ratio", ratio (skips - fst b0.reactive) (reruns - snd b0.reactive));
    ( "xquery.opaque_share",
      let nodes = List.assoc "nodes" compile in
      if nodes = 0 then 0.
      else float_of_int (List.assoc "opaque-nodes" compile) /. float_of_int nodes );
    ("core.page_load_ms", page_load);
    ("core.script_ms", if page_load = 0. then 0. else page_load -. parse -. build);
    ("core.render_ms", self "Browser.render");
    ( "core.render_memo_hit_ratio",
      ratio (count r "render.memo.hit") (count r "render.memo.miss") );
    ( "core.dispatch_ms",
      self "Browser.click" +. self "Browser.dispatch" +. self "Browser.type_text" );
    ("core.event_loop_ms", self "Browser.run");
    ("click.buy_ms", kind_ms "buy");
    ("click.more_ms", kind_ms "more");
    ("click.refresh_ms", kind_ms "refresh");
    ("click.type_ms", kind_ms "type");
    ("net.requests_per_op", per_op_i (Http_sim.total_requests http - b0.requests));
    ("net.clock_tasks_per_op", per_op_i (count r "clock.tasks"));
    ("gc.minor_words_per_op", per_op (gc.Gc.minor_words -. b0.minor_words));
    ("gc.major_collections", float_of_int (gc.Gc.major_collections - b0.majors));
    ("appserver.evals_per_op", 0.);
    ("appserver.queue_p99_vs", 0.);
    ("fleet.client_ms_per_op", 0.);
    ("gc.live_mb_end", live_mb ());
  ]
  |> List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k extra)))

(* parse then build the bytes an op loaded, as separate probe calls *)
let probe_parse_build probes body =
  let trees =
    span ~layer:"xmlb" "probe.Xml_parser.parse" (fun () -> Xmlb.Xml_parser.parse body)
  in
  let rec nodes = function
    | Xmlb.Xml_parser.Element (_, attrs, kids) ->
        List.fold_left (fun a k -> a + nodes k) (1 + List.length attrs) kids
    | _ -> 1
  in
  let t0 = Spans.now_ns () in
  ignore (span ~layer:"dom" "probe.Dom.of_tree" (fun () -> Dom.of_tree trees));
  let t1 = Spans.now_ns () in
  probes := (List.fold_left (fun a t -> a + nodes t) 1 trees, Int64.sub t1 t0) :: !probes

let outcome r ~loop_ns ~ops_nested ~done_ops ~layers =
  let busy_ms = Spans.ms_of_ns (Int64.sub loop_ns r.outside_ns) in
  {
    samples = r.lat;
    gaps = r.gap;
    speed = r.speed;
    done_ops;
    attempted = r.n;
    failed = r.failed;
    failures = r.failures;
    loop_ms = Spans.ms_of_ns loop_ns;
    outside_ms = Spans.ms_of_ns r.outside_ns;
    ops_nested;
    ops_per_s = float_of_int done_ops /. (busy_ms /. 1e3);
    layers;
    counters = r.counts;
  }

(* ------------------------------------------------------------------ *)
(* DOM navigation for the checks: plain tree walks, no indexes          *)

let elements n = List.filter (fun c -> Dom.kind c = Dom.Element) (Dom.children n)
let local n = match Dom.name n with Some q -> q.Xmlb.Qname.local | None -> ""
let child name n = List.find_opt (fun c -> local c = name) (elements n)

let child_id name id n =
  List.find_opt
    (fun c -> local c = name && Dom.attribute_local c "id" = Some id)
    (elements n)

let ( let* ) = Option.bind

let by_id doc id =
  match Dom.get_element_by_id doc id with
  | Some n -> n
  | None -> failwith ("set-up: the page has no element with id " ^ id)

(* ------------------------------------------------------------------ *)
(* page-load: one tab navigates through catalogue pages                 *)

(* ops for a run budget of [seconds] *)
let scaled per_second seconds = max 1 (int_of_float (seconds *. float_of_int per_second))

let pages_per_second = 25

type page_load = { pages : Gen.page array; tab : B.t }

let page_load_setup ~seed ~seconds =
  { pages = Gen.pages ~seed ~n:(scaled pages_per_second seconds); tab = B.create () }

let page_load_expect (page : Gen.page) = page.summary ^ ", 1 listener"

(* the summary text and the listener count of the first buy button *)
let page_load_observe tab () =
  let body =
    let* html = child "html" (B.document tab) in
    child "body" html
  in
  let summary =
    let* body = body in
    let* box = child_id "div" "summary-box" body in
    let* p = child "p" box in
    Some (Dom.string_value p)
  in
  let listeners =
    let* body = body in
    let* cat = child_id "ul" "catalogue" body in
    let* li = child "li" cat in
    let* button = child "button" li in
    Some (Dom_event.listener_count button)
  in
  Printf.sprintf "%s, %s"
    (Option.value ~default:"(no summary)" summary)
    (match listeners with
    | Some 1 -> "1 listener"
    | Some n -> string_of_int n ^ " listeners"
    | None -> "(no button)")

let page_load ?(expect = page_load_expect) { pages; tab } =
  let n = Array.length pages in
  let r = new_run n in
  let probes = ref [] in
  let load i (page : Gen.page) =
    step r (Some tab) i ~kind:"page-load" ~expect:(expect page) (fun () ->
        span ~layer:"core" "Page.load" (fun () -> P.load tab page.html);
        span ~layer:"core" "Browser.run" (fun () -> B.run tab);
        ignore (span ~layer:"core" "Browser.render" (fun () -> B.render tab));
        page_load_observe tab);
    if !Spans.enabled then
      outside r (fun () ->
          probe_parse_build probes page.html;
          ignore
            (span ~layer:"xquery" "probe.Engine.compile" (fun () ->
                 Xquery.Engine.compile page.script)))
  in
  let b0 = before tab.B.http in
  let (), loop_ns = counted r (fun () -> Array.iteri load pages) in
  let layers =
    if !Spans.enabled then layers r tab.B.http b0 ~probes:!probes ~extra:[] else []
  in
  outcome r ~loop_ns ~ops_nested:false ~done_ops:n ~layers

(* ------------------------------------------------------------------ *)
(* click: user actions on one loaded page                               *)

let click_ops_per_second = 75
let hints_host = "hints.example"

type click = {
  input : Gen.click_input;
  b : B.t;
  doc : Dom.node;
  cart : Dom.node;
  catalogue : Dom.node;
  hint : Dom.node;
  query : Dom.node;
  more : Dom.node;
  panels : Dom.node array;
  buttons : (string, Dom.node) Hashtbl.t;  (** item id -> its buy button *)
}

(* the suggest service: names starting with the typed prefix *)
let hint_server names (req : Http_sim.request) =
  let prefix =
    match String.index_opt req.path '=' with
    | Some i -> String.sub req.path (i + 1) (String.length req.path - i - 1)
    | None -> ""
  in
  Http_sim.ok
    ("<hints>"
    ^ String.concat ""
        (List.filter_map
           (fun n ->
             if String.starts_with ~prefix n then Some ("<hint>" ^ n ^ "</hint>") else None)
           (Array.to_list names))
    ^ "</hints>")

let click_setup ~seed ~seconds =
  let input = Gen.click_input ~seed ~ops:(scaled click_ops_per_second seconds) in
  let clock = Virtual_clock.create () in
  let http = Http_sim.create clock in
  Http_sim.register_host http ~host:hints_host (hint_server input.hint_names);
  let b = B.create ~clock ~http () in
  P.load b input.html;
  B.run b;
  ignore (B.render b);
  if b.B.script_errors <> [] then
    failwith ("set-up: the click page logged " ^ String.concat "; " b.B.script_errors);
  let doc = B.document b in
  let buttons = Hashtbl.create (Array.length input.catalogue) in
  Array.iter
    (fun (it : Gen.item) ->
      match child "button" (by_id doc it.id) with
      | Some button -> Hashtbl.replace buttons it.id button
      | None -> failwith ("set-up: item without a button: " ^ it.id))
    input.catalogue;
  {
    input;
    b;
    doc;
    cart = by_id doc "cart";
    catalogue = by_id doc "catalogue";
    hint = by_id doc "txtHint";
    query = by_id doc "q";
    more = by_id doc "more";
    panels = Array.init Gen.categories (fun p -> by_id doc (Printf.sprintf "panel-c%d" p));
    buttons;
  }

let value_qn = Xmlb.Qname.make "value"
let js_buys b =
  Minijs.Js_interp.(to_number (eval_in_window b b.B.top_window "buys")) |> int_of_float

(* what each kind of op shows; the formats match [Gen.click_input] *)
let observe c (op : Gen.click_op) () =
  if B.document c.b != c.doc then "(page lost)"
  else
    match op with
    | Buy _ ->
        let head =
          match elements c.cart with li :: _ -> Dom.attribute_local li "ref" | [] -> None
        in
        Printf.sprintf "%s, %d buys"
          (Option.value ~default:"(empty cart)" head)
          (js_buys c.b)
    | More ->
        let items = elements c.catalogue in
        let last = List.nth items (List.length items - 1) in
        Printf.sprintf "%d items, last %s" (List.length items)
          (Option.value ~default:"?" (Dom.attribute_local last "id"))
    | Refresh ->
        String.concat ","
          (List.filter_map Fun.id
             (Array.to_list
                (Array.mapi
                   (fun p panel ->
                     if child "over" panel <> None then Some (string_of_int p) else None)
                   c.panels)))
    | Type _ -> Dom.string_value c.hint

let kind_of (op : Gen.click_op) =
  match op with Buy _ -> "buy" | More -> "more" | Refresh -> "refresh" | Type _ -> "type"

let click ?(expect = fun (s : Gen.click_step) -> s.expect) c =
  let steps = c.input.steps in
  let n = Array.length steps in
  let r = new_run n in
  let b = c.b in
  let handler = Option.get (Http_sim.find_host b.B.http ~host:hints_host) in
  Http_sim.register_host b.B.http ~host:hints_host (fun req ->
      span ~layer:"net" "Http_sim.handler" (fun () -> handler req));
  let act i (s : Gen.click_step) =
    step r (Some b) i ~kind:(kind_of s.op) ~expect:(expect s) (fun () ->
        (match s.op with
        | Buy it ->
            let button = Hashtbl.find c.buttons it.id in
            span ~layer:"core" "Browser.click" (fun () -> B.click b button)
        | More -> span ~layer:"core" "Browser.click" (fun () -> B.click b c.more)
        | Refresh ->
            Array.iter
              (fun panel ->
                span ~layer:"core" "Browser.dispatch" (fun () ->
                    B.dispatch b ~target:panel "tick"))
              c.panels
        | Type { reset; key } ->
            if reset then
              span ~layer:"dom" "Dom.set_attribute" (fun () ->
                  Dom.set_attribute c.query value_qn "");
            span ~layer:"core" "Browser.type_text" (fun () ->
                B.type_text b c.query (String.make 1 key)));
        span ~layer:"core" "Browser.run" (fun () -> B.run b);
        ignore (span ~layer:"core" "Browser.render" (fun () -> B.render b));
        observe c s.op)
  in
  let b0 = before b.B.http in
  let (), loop_ns = counted r (fun () -> Array.iteri act steps) in
  (* the whole cart, in click order *)
  let cart = List.filter_map (fun li -> Dom.attribute_local li "ref") (elements c.cart) in
  let expected =
    Array.fold_left
      (fun acc (s : Gen.click_step) -> match s.op with Buy it -> it.id :: acc | _ -> acc)
      [] steps
  in
  if cart <> expected then
    fail r (n - 1) "the cart does not list the bought items in click order";
  let layers = if !Spans.enabled then layers r b.B.http b0 ~probes:[] ~extra:[] else [] in
  outcome r ~loop_ns ~ops_nested:false ~done_ops:n ~layers

(* ------------------------------------------------------------------ *)
(* fleet: sessions browsing the §6.1 server-rendered page               *)

let sessions_per_second = 25

type fleet = {
  input : Gen.fleet_input;
  elsevier : Scenarios.elsevier;
  http : Http_sim.t;
}

let fleet_setup ~seed ~seconds =
  let input = Gen.fleet_input ~seed ~sessions:(scaled sessions_per_second seconds) in
  let http = Http_sim.create (Virtual_clock.create ()) in
  let elsevier =
    Scenarios.make_elsevier ~journals:input.journals ~volumes:input.volumes
      ~issues:input.issues ~articles:input.articles http
  in
  (* a priced single-server queue; no shedding, no faults *)
  AS.set_queue ~service_cost:0.02 elsevier.server;
  (* the server's first request is its cold start: part of set-up *)
  let warm =
    Http_sim.fetch http ("http://" ^ AS.host elsevier.server ^ elsevier.browse_page_path)
  in
  if warm.status <> 200 then failwith "set-up: the server does not serve its page";
  { input; elsevier; http }

let occurrences sub s =
  let n = String.length sub in
  let rec go i acc =
    match String.index_from_opt s i sub.[0] with
    | Some j when j + n <= String.length s ->
        if String.sub s j n = sub then go (j + n) (acc + 1) else go (j + 1) acc
    | _ -> acc
  in
  go 0 0

(* every archive article carries two references (Scenarios.make_elsevier) *)
let fleet_expect input =
  let n = Gen.article_count input in
  Printf.sprintf "200, %d articles, %d with 2 refs, same body" n n

let fleet ?(expect = fleet_expect) { input; elsevier; http } =
  let n = input.sessions * input.visits in
  let r = new_run n in
  let server = elsevier.server in
  let host = AS.host server in
  let handler = Option.get (Http_sim.find_host http ~host) in
  let probes = ref [] in
  let first_body = ref None and requests = ref 0 and stray = ref 0 in
  (* every request for the page is an op, timed around the server's
     handler: page evaluation plus serialization *)
  Http_sim.register_host http ~host (fun req ->
      if req.path <> elsevier.browse_page_path || !requests >= n then (
        incr stray;
        handler req)
      else begin
        let i = !requests in
        incr requests;
        let resp = ref None in
        step r None i ~kind:"request" ~expect:(expect input) (fun () ->
            let res = span ~layer:"appserver" "App_server.handler" (fun () -> handler req) in
            resp := Some res;
            fun () ->
              let body = res.Http_sim.body in
              if !first_body = None then first_body := Some body;
              Printf.sprintf "%d, %d articles, %d with 2 refs, %s" res.status
                (occurrences "<li>Article " body)
                (occurrences "\">2 refs, " body)
                (if Some body = !first_body then "same body" else "different body"));
        match !resp with
        | Some res ->
            if !Spans.enabled then outside r (fun () -> probe_parse_build probes res.body);
            res
        | None -> Http_sim.not_found "request raised"
      end);
  let b0 = before http in
  let evals0 = AS.evaluations server in
  let config =
    {
      Appserver.Fleet.default_config with
      sessions = input.sessions;
      visits = input.visits;
      spread = input.spread;
      seed = input.fleet_seed;
      page_path = elsevier.browse_page_path;
    }
  in
  let report, loop_ns =
    counted r (fun () ->
        span ~layer:"appserver" "Fleet.run" (fun () -> Appserver.Fleet.run ~config server))
  in
  (* a visit that never completed is a failed op, if its request was not *)
  let missing = n - report.Appserver.Fleet.pages_ok in
  for k = r.failed + 1 to missing do
    fail r (n - k) "visit did not complete"
  done;
  if !stray > 0 then
    fail r (n - 1) (Printf.sprintf "%d requests outside the op stream" !stray);
  let layers =
    if not !Spans.enabled then []
    else
      let ops = float_of_int n in
      let server_ms = Array.fold_left ( +. ) 0. r.lat in
      layers r http b0 ~probes:!probes
        ~extra:
          [
            ("appserver.evals_per_op", float_of_int (AS.evaluations server - evals0) /. ops);
            ("appserver.queue_p99_vs", report.p99);
            ( "fleet.client_ms_per_op",
              (Spans.ms_of_ns loop_ns -. server_ms -. Spans.ms_of_ns r.outside_ns) /. ops );
          ]
  in
  outcome r ~loop_ns ~ops_nested:true ~done_ops:report.pages_ok ~layers
