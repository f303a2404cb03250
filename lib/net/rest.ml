open Xmlb

let namespace = "http://www.example.com/rest"

type fallback = {
  put : uri:string -> Dom.node -> unit;
  get : uri:string -> Dom.node option;
}

let cache_capacity = 64

type client = {
  http : Http_sim.t;
  cache : Dom.node Xquery.Query_cache.t option;  (** documents by URI *)
  mutable hits : int;
  mutable misses : int;
  mutable online : unit -> bool;
  policy : Retry.policy;
  prng : Prng.t;
  retry_stats : Retry.stats;
  mutable fallback : fallback option;
  mutable fallback_hits : int;
}

let make_client ?(cache = false) ?(retry = Retry.default) ?(seed = 0) http =
  {
    http;
    cache =
      (if cache then
         Some (Xquery.Query_cache.create ~name:"rest-cache" ~capacity:cache_capacity ())
       else None);
    hits = 0;
    misses = 0;
    online = (fun () -> true);
    policy = retry;
    prng = Prng.create ~seed;
    retry_stats = Retry.make_stats ();
    fallback = None;
    fallback_hits = 0;
  }

let cache_hits c = c.hits
let cache_misses c = c.misses

let clear_cache c = Option.iter Xquery.Query_cache.clear c.cache

let retry_stats c = c.retry_stats

let set_fallback c ~put ~get = c.fallback <- Some { put; get }
let fallback_hits c = c.fallback_hits

let err fmt = Xq_error.raise_error "FODC0002" fmt

let set_online_guard c guard = c.online <- guard

let require_online c uri =
  if not (c.online ()) then err "offline: cannot fetch %s" uri

let retry_fetch c ?meth ?body uri =
  Retry.fetch ~policy:c.policy ~prng:c.prng ~stats:c.retry_stats c.http ?meth ?body
    uri

let fetch_doc c uri =
  require_online c uri;
  match
    Retry.fetch_check ~policy:c.policy ~prng:c.prng ~stats:c.retry_stats
      ~check:(fun resp ->
        match Dom.of_string resp.Http_sim.body with
        | doc -> Ok doc
        | exception Xml_parser.Parse_error _ -> Error "not well-formed")
      c.http uri
  with
  | Ok doc ->
      (* remember a pristine copy for graceful degradation (§2.4): if
         the network later fails for good, the document can still be
         served from client-side storage *)
      (match c.fallback with Some f -> f.put ~uri (Dom.clone doc) | None -> ());
      doc
  | Error resp -> (
      let stored =
        match c.fallback with Some f -> f.get ~uri | None -> None
      in
      match stored with
      | Some doc ->
          c.fallback_hits <- c.fallback_hits + 1;
          (* serve a copy so query-side mutations cannot damage the backup *)
          Dom.clone doc
      | None ->
          if resp.Http_sim.status = 200 then
            err "REST GET %s: response is not well-formed XML" uri
          else err "REST GET %s failed with status %d" uri resp.Http_sim.status)

let get_doc c uri =
  match c.cache with
  | None ->
      c.misses <- c.misses + 1;
      fetch_doc c uri
  | Some cache -> (
      match Xquery.Query_cache.find cache uri with
      | Some doc ->
          c.hits <- c.hits + 1;
          doc
      | None ->
          c.misses <- c.misses + 1;
          let doc = fetch_doc c uri in
          (* the cost is the one fetch a later hit saves *)
          Xquery.Query_cache.add cache uri ~cost:1 doc;
          doc)

let seq_string seq = Xdm_item.sequence_string seq

let response_to_sequence resp =
  if resp.Http_sim.status <> 200 then
    err "REST call failed with status %d" resp.Http_sim.status
  else
    match Dom.of_string resp.Http_sim.body with
    | doc -> [ Xdm_item.Node doc ]
    | exception Xml_parser.Parse_error _ ->
        [ Xdm_item.Atomic (Xdm_atomic.String resp.Http_sim.body) ]

let install c sctx =
  Xquery.Static_context.declare_namespace sctx ~prefix:"rest" ~uri:namespace;
  let register local arity f =
    Xquery.Static_context.register_external sctx
      (Qname.make ~uri:namespace local)
      ~arity f
  in
  register "get" 1 (fun _cctx args ->
      let uri = seq_string (List.nth args 0) in
      [ Xdm_item.Node (get_doc c uri) ]);
  register "get-text" 1 (fun _cctx args ->
      let uri = seq_string (List.nth args 0) in
      require_online c uri;
      let resp = retry_fetch c uri in
      if resp.Http_sim.status <> 200 then
        err "REST GET %s failed with status %d" uri resp.Http_sim.status
      else [ Xdm_item.Atomic (Xdm_atomic.String resp.Http_sim.body) ]);
  register "post" 2 (fun _cctx args ->
      let uri = seq_string (List.nth args 0) in
      require_online c uri;
      let body = seq_string (List.nth args 1) in
      response_to_sequence (retry_fetch c ~meth:Http_sim.Post ~body uri))
