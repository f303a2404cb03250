module B = Xqib.Browser
module P = Xqib.Page

type config = {
  sessions : int;
  tenants : int;
  visits : int;
  page_path : string;
  seed : int;
  spread : float;
  think_time : float;
  retry : Retry.policy;
  max_tasks : int option;
  capture_docs : bool;
}

let default_config =
  {
    sessions = 100;
    tenants = 1;
    visits = 3;
    page_path = "/";
    seed = 1;
    spread = 10.;
    think_time = 5.;
    retry = { Retry.default with Retry.max_attempts = 4 };
    max_tasks = None;
    capture_docs = false;
  }

type report = {
  sessions : int;
  tenants : int;
  visits : int;
  pages_ok : int;
  pages_shed : int;
  pages_lost : int;
  server_evals : int;
  server_requests : int;
  sheds : int;
  max_queue_depth : int;
  served_requests : int;
  tenant_compiles : int;
  attempts : int;
  retries : int;
  client_cache_hits : int;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;
  elapsed : float;
  pages_per_sec : float;
  session_docs : string list;
}

(* one simulated user: an independent browser (own window tree, local
   store, retry PRNG), a cookie jar carrying its session identity, a
   think-time PRNG, and per-session counters *)
type session = {
  id : int;
  tenant : int;
  browser : B.t;
  think_prng : Prng.t;
  cookies : (string * string) list;
  mutable ok : int;
  mutable shed : int;
  mutable lost : int;
  mutable cache_hits : int;
}

(* deterministic per-session seeds, derived from the fleet seed; the
   differential N=1 test reconstructs a session's browser from this *)
let session_seed ~seed i = seed + (7919 * (i + 1))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let contains_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let run ?(config = default_config) server =
  if config.sessions < 1 then invalid_arg "Fleet.run: need at least one session";
  if config.tenants < 1 then invalid_arg "Fleet.run: need at least one tenant";
  let http = App_server.http server in
  let clock = Http_sim.clock http in
  let host = App_server.host server in
  App_server.set_tenants server config.tenants;
  let evals0 = App_server.evaluations server in
  let requests0 = Http_sim.request_count http ~host in
  let latency_skip = Array.length (App_server.latencies server) in
  let start_prng = Prng.create ~seed:config.seed in
  let qc_hits () = (Xquery.Query_cache.stats Xquery.Engine.query_cache).Xquery.Query_cache.hits in
  let make_session i =
    let seed = session_seed ~seed:config.seed i in
    let browser =
      (* cache:false — every visit exercises the network, so the
         server-side load scales with the fleet, like T7's workload *)
      B.create ~cache:false ~clock ~http ~retry:config.retry ~seed ()
    in
    {
      id = i;
      tenant = i mod config.tenants;
      browser;
      think_prng = Prng.create ~seed:(seed + 1);
      cookies = [ ("xqib-session", Printf.sprintf "s%d-%d" config.seed i) ];
      ok = 0;
      shed = 0;
      lost = 0;
      cache_hits = 0;
    }
  in
  let sessions = Array.init config.sessions make_session in
  let uri_for s =
    let path =
      if config.tenants > 1 then Printf.sprintf "/t%d%s" s.tenant config.page_path
      else config.page_path
    in
    "http://" ^ host ^ path
  in
  let visit_once s =
    let hits0 = qc_hits () in
    (* no B.run here: the browser shares the fleet clock, so a visit
       draining the queue would nest into other sessions' tasks and
       bypass the fleet's task budget — any async work a page schedules
       (behind calls) runs in the global loop below instead *)
    (match P.browse s.browser (uri_for s) with
    | () -> s.ok <- s.ok + 1
    | exception Xq_error.Error e ->
        (* SEBR0404 carries the final status: 503 means the load was
           shed (and retries exhausted); anything else is plain loss *)
        if contains_substring (Xq_error.to_string e) "status 503" then
          s.shed <- s.shed + 1
        else s.lost <- s.lost + 1);
    s.cache_hits <- s.cache_hits + (qc_hits () - hits0)
  in
  let rec visit s n () =
    visit_once s;
    if n + 1 < config.visits then
      let think = config.think_time *. (0.5 +. Prng.float s.think_prng) in
      Virtual_clock.schedule clock ~delay:think (visit s (n + 1))
  in
  (* stagger session arrivals over [0, spread): draws happen in session
     order from the fleet PRNG, so the schedule is seed-deterministic *)
  Array.iter
    (fun s ->
      let offset = Prng.float start_prng *. config.spread in
      Virtual_clock.schedule clock ~delay:offset (visit s 0))
    sessions;
  let max_tasks =
    match config.max_tasks with
    | Some n -> n
    | None -> max 100_000 (config.sessions * config.visits * 64)
  in
  Virtual_clock.run_until_idle ~max_tasks clock;
  let lat = App_server.latencies server in
  let lat = Array.sub lat latency_skip (Array.length lat - latency_skip) in
  Array.sort compare lat;
  let sum = Array.fold_left ( +. ) 0. lat in
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 sessions in
  let elapsed = Virtual_clock.now clock in
  let pages_ok = total (fun s -> s.ok) in
  {
    sessions = config.sessions;
    tenants = config.tenants;
    visits = config.visits;
    pages_ok;
    pages_shed = total (fun s -> s.shed);
    pages_lost = total (fun s -> s.lost);
    server_evals = App_server.evaluations server - evals0;
    server_requests = Http_sim.request_count http ~host - requests0;
    sheds = App_server.sheds server;
    max_queue_depth = App_server.max_queue_depth server;
    served_requests = App_server.served_requests server;
    tenant_compiles = App_server.tenant_compiles server;
    attempts = total (fun s -> s.browser.B.net_stats.Retry.attempts);
    retries = total (fun s -> s.browser.B.net_stats.Retry.retries);
    client_cache_hits = total (fun s -> s.cache_hits);
    p50 = percentile lat 0.50;
    p99 = percentile lat 0.99;
    p999 = percentile lat 0.999;
    mean_latency = (if Array.length lat = 0 then 0. else sum /. float_of_int (Array.length lat));
    elapsed;
    pages_per_sec = (if elapsed > 0. then float_of_int pages_ok /. elapsed else 0.);
    session_docs =
      (if config.capture_docs then
         Array.to_list
           (Array.map (fun s -> Dom.serialize (B.document s.browser)) sessions)
       else []);
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fleet: %d sessions x %d visits, %d tenant(s)@,\
     pages: %d ok, %d shed, %d lost@,\
     server: %d evals, %d requests, %d shed, queue depth max %d@,\
     latency: p50 %.3fs p99 %.3fs p999 %.3fs mean %.3fs@,\
     throughput: %.2f pages/s over %.1f virtual s@]"
    r.sessions r.visits r.tenants r.pages_ok r.pages_shed r.pages_lost
    r.server_evals r.server_requests r.sheds r.max_queue_depth r.p50 r.p99
    r.p999 r.mean_latency r.pages_per_sec r.elapsed
