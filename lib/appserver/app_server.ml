module DC = Xquery.Dynamic_context

type page =
  | Xquery_page of { compiled : Xquery.Engine.compiled; source : string }
  | Static of { body : string; content_type : string }

type queue_config = {
  service_cost : float;
  static_cost : float;
  shed_depth : int option;
}

(* zero-cost, never sheds: byte-identical to the pre-queue server *)
let no_queue = { service_cost = 0.; static_cost = 0.; shed_depth = None }

type t = {
  http : Http_sim.t;
  server_host : string;
  doc_store : Doc_store.t;
  pages : (string, page) Hashtbl.t;
  mutable evals : int;
  mutable tenants : int;
  tenant_caches : (int, Xquery.Engine.compiled Xquery.Query_cache.t) Hashtbl.t;
      (** per-tenant compiled-page partitions (tenants >= 1); tenant 0
          keeps using the page's eagerly-compiled artifact *)
  mutable tenant_compiles : int;
  mutable queue : queue_config;
  mutable busy_until : float;
  backlog : float Queue.t;  (** finish times of admitted requests, ascending *)
  mutable sheds : int;
  mutable max_depth : int;
  mutable served : int;
  mutable latencies : float list;  (** per admitted request, newest first *)
}

let host t = t.server_host
let store t = t.doc_store
let http t = t.http
let evaluations t = t.evals
let doc_uri t ~name = Doc_store.uri_of ~host:t.server_host ~name

(* accept bare names and full /docs/ URIs: the one resolution rule
   shared by the fn:doc and fn:doc-available host hooks, and the same
   stripping Doc_store.attach applies to HTTP requests *)
let resolve_doc_name uri =
  match Http_sim.split_uri uri with
  | Some (_, path) ->
      let prefix = "/docs/" in
      if
        String.length path > String.length prefix
        && String.sub path 0 (String.length prefix) = prefix
      then String.sub path (String.length prefix) (String.length path - String.length prefix)
      else path
  | None -> uri

(* the server's host hooks: fn:doc resolves against the store *)
let server_host_hooks t =
  {
    DC.default_host with
    DC.doc =
      (fun uri ->
        let name = resolve_doc_name uri in
        match Doc_store.get t.doc_store name with
        | Some doc -> doc
        | None ->
            Xq_error.raise_error "FODC0002" "no stored document %S" name);
    DC.doc_available =
      (fun uri -> Doc_store.get t.doc_store (resolve_doc_name uri) <> None);
    DC.put =
      (fun node uri ->
        (* fn:put works server-side (it is only blocked in the browser,
           §4.2.1): stores a copy under the given name *)
        Doc_store.put t.doc_store ~name:uri (Dom.clone node));
    DC.now = (fun () -> Virtual_clock.to_datetime (Http_sim.clock t.http));
  }

let render t compiled =
  t.evals <- t.evals + 1;
  let result = Xquery.Engine.run ~host:(server_host_hooks t) compiled in
  String.concat ""
    (List.map
       (function
         | Xdm_item.Node n -> Dom.serialize n
         | Xdm_item.Atomic a -> Xdm_atomic.to_string a)
       result)

(* ---------------- request queue / admission control ---------------- *)

let set_queue ?(service_cost = 0.) ?static_cost ?shed_depth t =
  let static_cost =
    match static_cost with Some c -> c | None -> service_cost /. 10.
  in
  (match shed_depth with
  | Some d when d < 1 -> invalid_arg "App_server.set_queue: shed_depth must be >= 1"
  | _ -> ());
  t.queue <- { service_cost; static_cost; shed_depth }

let sheds t = t.sheds
let max_queue_depth t = t.max_depth
let served_requests t = t.served
let latencies t = Array.of_list (List.rev t.latencies)

(* the process-wide registry mirrors of every server's statistics *)
let shed_count = Obs.Metrics.counter "appserver.sheds"
let request_count = Obs.Metrics.counter "appserver.requests"
let latency_histogram = Obs.Metrics.histogram "appserver.latency_s"
let depth_histogram = Obs.Metrics.histogram "appserver.queue-depth"
let tenant_compile_count = Obs.Metrics.counter "appserver.tenant-compiles"

(* single-server FIFO queue in virtual time. A request's arrival time
   is the lag-corrected clock ([now - current_lag]): the fleet runs
   concurrent sessions sequentially, so a session's task may fire late
   because other sessions' blocking work advanced the clock — but its
   request still hits the server at the time the session was scheduled
   to act. An admitted request starts at max(arrival, busy_until) and
   experiences wait + service; when the backlog is at the admission
   threshold it is shed with a Retry-After hint saying when a slot
   frees up. The charge into the client's {!Http_sim} latency is only
   the part of the wait the clock has not already covered. *)
let admit t ~cost =
  if cost <= 0. then `Admitted 0.
  else begin
    let clock = Http_sim.clock t.http in
    let now = Virtual_clock.now clock in
    let arrival = Float.max 0. (now -. Virtual_clock.current_lag clock) in
    while (not (Queue.is_empty t.backlog)) && Queue.peek t.backlog <= arrival do
      ignore (Queue.pop t.backlog)
    done;
    let depth = Queue.length t.backlog in
    let over =
      match t.queue.shed_depth with Some d -> depth >= d | None -> false
    in
    if over then begin
      t.sheds <- t.sheds + 1;
      Obs.Metrics.incr shed_count;
      let head =
        if Queue.is_empty t.backlog then arrival else Queue.peek t.backlog
      in
      `Shed (Float.max cost (head -. arrival))
    end
    else begin
      let start = Float.max arrival t.busy_until in
      let finish = start +. cost in
      t.busy_until <- finish;
      Queue.push finish t.backlog;
      let depth = depth + 1 in
      if depth > t.max_depth then t.max_depth <- depth;
      let lat = finish -. arrival in
      t.served <- t.served + 1;
      t.latencies <- lat :: t.latencies;
      Obs.Metrics.incr request_count;
      Obs.Metrics.observe latency_histogram lat;
      Obs.Metrics.observe depth_histogram (float_of_int depth);
      `Admitted (Float.max 0. (finish -. now))
    end
  end

let shed_response retry_after =
  {
    Http_sim.status = 503;
    body = "server overloaded: request shed";
    content_type = "text/plain";
    retry_after = Some retry_after;
  }

(* ---------------- tenancy ---------------- *)

let set_tenants t n =
  if n < 1 then invalid_arg "App_server.set_tenants: need at least one tenant";
  t.tenants <- n

let tenants t = t.tenants
let tenant_compiles t = t.tenant_compiles

let tenant_cache t tenant =
  match Hashtbl.find_opt t.tenant_caches tenant with
  | Some c -> c
  | None ->
      let c =
        Xquery.Query_cache.create
          ~name:(Printf.sprintf "appserver.tenant%d" tenant) ()
      in
      Hashtbl.replace t.tenant_caches tenant c;
      c

let tenant_cache_stats t ~tenant =
  Xquery.Query_cache.stats (tenant_cache t tenant)

(* requests carry their tenant as a path prefix: /t<k>/rest-of-path.
   With one tenant (the default) nothing is stripped, so existing
   single-tenant URIs behave exactly as before. *)
let split_tenant t path =
  if t.tenants <= 1 then (0, path)
  else if String.length path >= 3 && path.[0] = '/' && path.[1] = 't' then
    match String.index_from_opt path 1 '/' with
    | Some i -> (
        match int_of_string_opt (String.sub path 2 (i - 2)) with
        | Some k when k >= 0 && k < t.tenants ->
            (k, String.sub path i (String.length path - i))
        | _ -> (0, path))
    | None -> (0, path)
  else (0, path)

(* tenant 0 serves the shared eagerly-compiled artifact; other tenants
   compile lazily into their own partition, so one tenant's churn
   (or cold start) never evicts another's entries *)
let compiled_for t ~tenant ~path ~compiled ~source =
  if tenant = 0 then compiled
  else
    let cache = tenant_cache t tenant in
    match Xquery.Query_cache.find cache path with
    | Some c -> c
    | None ->
        let c = Xquery.Engine.compile source in
        t.tenant_compiles <- t.tenant_compiles + 1;
        Obs.Metrics.incr tenant_compile_count;
        Xquery.Query_cache.add cache path ~cost:(String.length source) c;
        c

(* ---------------- request handling ---------------- *)

let handler t ~tenant req =
  match Hashtbl.find_opt t.pages req.Http_sim.path with
  | Some (Xquery_page { compiled; source }) -> (
      match admit t ~cost:t.queue.service_cost with
      | `Shed ra -> shed_response ra
      | `Admitted lat ->
          Http_sim.charge_latency t.http lat;
          let compiled =
            compiled_for t ~tenant ~path:req.Http_sim.path ~compiled ~source
          in
          Http_sim.ok ~content_type:"text/html" (render t compiled))
  | Some (Static { body; content_type }) -> (
      match admit t ~cost:t.queue.static_cost with
      | `Shed ra -> shed_response ra
      | `Admitted lat ->
          Http_sim.charge_latency t.http lat;
          Http_sim.ok ~content_type body)
  | None -> Http_sim.not_found req.Http_sim.path

let is_docs_path path =
  String.equal path "/docs"
  || (String.length path >= 6 && String.sub path 0 6 = "/docs/")

let create http ~host:server_host =
  let t =
    {
      http;
      server_host;
      doc_store = Doc_store.create ();
      pages = Hashtbl.create 8;
      evals = 0;
      tenants = 1;
      tenant_caches = Hashtbl.create 4;
      tenant_compiles = 0;
      queue = no_queue;
      busy_until = 0.;
      backlog = Queue.create ();
      sheds = 0;
      max_depth = 0;
      served = 0;
      latencies = [];
    }
  in
  (* document store at /docs/, pages everywhere else (an exact prefix
     match: /docsearch is a page path, not a store path) *)
  Doc_store.attach t.doc_store http ~host:server_host;
  let docs_handler = Option.get (Http_sim.find_host http ~host:server_host) in
  Http_sim.register_host http ~host:server_host (fun req ->
      let tenant, path = split_tenant t req.Http_sim.path in
      let req = { req with Http_sim.path } in
      if is_docs_path path then
        match admit t ~cost:t.queue.static_cost with
        | `Shed ra -> shed_response ra
        | `Admitted lat ->
            Http_sim.charge_latency t.http lat;
            docs_handler req
      else handler t ~tenant req);
  t

let add_xquery_page t ~path source =
  let compiled = Xquery.Engine.compile_cached source in
  Hashtbl.replace t.pages path (Xquery_page { compiled; source })

let add_static_page t ~path ?(content_type = "text/html") body =
  Hashtbl.replace t.pages path (Static { body; content_type })

let add_module t ~path source =
  Hashtbl.replace t.pages path
    (Static { body = source; content_type = "application/xquery" })

let page_source t ~path =
  match Hashtbl.find_opt t.pages path with
  | Some (Xquery_page { source; _ }) -> Some source
  | Some (Static _) | None -> None

let render_page t ~path =
  match Hashtbl.find_opt t.pages path with
  | Some (Xquery_page { compiled; _ }) -> render t compiled
  | Some (Static { body; _ }) -> body
  | None -> Xq_error.raise_error "SEAS0404" "no page at %s" path
