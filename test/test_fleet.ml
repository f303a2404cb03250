(* The fleet simulator: determinism, admission control/shedding,
   tenancy, budget surfacing, and the differential property that a
   fleet of one session is byte-identical to a hand-driven single
   session built from the same primitives. *)

module AS = Appserver.App_server
module Fleet = Appserver.Fleet
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* small worlds: every run_fleet call here uses the tiny 3-article
   archive (run_fleet's defaults) so the suite stays fast *)
let fleet ?(visits = 2) ?(tenants = 1) ?(rate = 0.) ?shed_depth
    ?(service_cost = 0.05) ?(sessions = 20) ?(spread = 2.) ?(think = 1.)
    ?max_tasks ?(capture_docs = false) ~migrated ~seed () =
  Scenarios.run_fleet ~visits ~tenants ~rate ?shed_depth ~service_cost ~spread
    ~think ?max_tasks ~capture_docs ~sessions ~migrated ~seed ()

(* what one fleet session does, hand-driven without the scheduler:
   same world construction, same seeds, same browser configuration *)
let single_session ~migrated ~seed ~rate ~visits =
  let clock = Virtual_clock.create () in
  let http = Http_sim.create clock in
  let e = Scenarios.make_elsevier ~journals:1 ~volumes:1 ~issues:1 ~articles:3 http in
  let host = AS.host e.server in
  AS.set_queue ~service_cost:0.05 e.server;
  if rate > 0. then
    Http_sim.set_faults http ~host ~seed (Http_sim.uniform_faults ~rate);
  let evals0 = AS.evaluations e.server in
  let requests0 = Http_sim.request_count http ~host in
  let b =
    B.create ~cache:false ~clock ~http ~retry:Fleet.default_config.Fleet.retry
      ~seed:(Fleet.session_seed ~seed 0) ()
  in
  let path = if migrated then e.client_page_path else e.browse_page_path in
  let uri = "http://" ^ host ^ path in
  let ok = ref 0 in
  for _ = 1 to visits do
    match Xqib.Page.browse b uri with
    | () ->
        B.run b;
        incr ok
    | exception Xq_error.Error _ -> ()
  done;
  ( Dom.serialize (B.document b),
    AS.evaluations e.server - evals0,
    Http_sim.request_count http ~host - requests0,
    !ok )

let differential =
  QCheck.Test.make ~count:15 ~name:"fleet of one == a single hand-driven session"
    QCheck.(
      quad (int_bound 999) (int_bound 2) bool (int_range 1 3))
    (fun (seed, rate_ix, migrated, visits) ->
      let rate = [| 0.; 0.15; 0.3 |].(rate_ix) in
      let r =
        fleet ~sessions:1 ~visits ~rate ~migrated ~seed ~capture_docs:true ()
      in
      let doc, evals, requests, ok = single_session ~migrated ~seed ~rate ~visits in
      let fleet_doc = match r.Fleet.session_docs with [ d ] -> d | _ -> "" in
      if fleet_doc <> doc then
        QCheck.Test.fail_reportf "final documents differ:@.%s@.vs@.%s" fleet_doc doc;
      if r.Fleet.server_evals <> evals then
        QCheck.Test.fail_reportf "evals: fleet %d vs single %d" r.Fleet.server_evals
          evals;
      if r.Fleet.server_requests <> requests then
        QCheck.Test.fail_reportf "requests: fleet %d vs single %d"
          r.Fleet.server_requests requests;
      if r.Fleet.pages_ok <> ok then
        QCheck.Test.fail_reportf "pages ok: fleet %d vs single %d" r.Fleet.pages_ok ok;
      true)

let unit_tests =
  [
    t "equal seeds give identical reports" (fun () ->
        let go () = fleet ~rate:0.2 ~shed_depth:8 ~migrated:false ~seed:11 () in
        let a = go () and b = go () in
        check Alcotest.bool "deterministic" true (a = b);
        let c = fleet ~rate:0.2 ~shed_depth:8 ~migrated:false ~seed:12 () in
        check Alcotest.bool "a different seed is a valid run" true
          (c.Fleet.pages_ok + c.Fleet.pages_shed + c.Fleet.pages_lost
          = c.Fleet.sessions * c.Fleet.visits));
    t "every visit is accounted for" (fun () ->
        let r = fleet ~rate:0.3 ~migrated:true ~seed:5 () in
        check Alcotest.int "ok + shed + lost = visits"
          (r.Fleet.sessions * r.Fleet.visits)
          (r.Fleet.pages_ok + r.Fleet.pages_shed + r.Fleet.pages_lost));
    t "shedding bounds the queue depth at the threshold" (fun () ->
        (* a burst (tiny spread) of expensive requests against a small
           admission threshold: the server sheds rather than queue *)
        let r =
          fleet ~sessions:30 ~spread:0.01 ~service_cost:0.5 ~shed_depth:4
            ~migrated:false ~seed:3 ()
        in
        check Alcotest.bool "load was shed" true (r.Fleet.sheds > 0);
        check Alcotest.bool "depth never exceeds the threshold" true
          (r.Fleet.max_queue_depth <= 4));
    t "migration flattens the latency curve under load" (fun () ->
        let server = fleet ~sessions:40 ~spread:1. ~migrated:false ~seed:7 () in
        let migrated = fleet ~sessions:40 ~spread:1. ~migrated:true ~seed:7 () in
        check Alcotest.bool "server-rendered queues up" true
          (server.Fleet.p99 > migrated.Fleet.p99);
        check Alcotest.int "migrated server does no evaluation" 0
          migrated.Fleet.server_evals);
    t "tenants compile into their own partitions" (fun () ->
        let r = fleet ~sessions:6 ~tenants:3 ~migrated:false ~seed:9 () in
        check Alcotest.int "one lazy compile per non-zero tenant" 2
          r.Fleet.tenant_compiles;
        check Alcotest.int "no page lost to tenant routing"
          (r.Fleet.sessions * r.Fleet.visits) r.Fleet.pages_ok);
    t "an exhausted task budget raises instead of truncating" (fun () ->
        match fleet ~sessions:5 ~max_tasks:3 ~migrated:true ~seed:1 () with
        | exception Virtual_clock.Budget_exhausted _ -> ()
        | _ -> Alcotest.fail "expected Budget_exhausted");
  ]

let suite = unit_tests @ [ QCheck_alcotest.to_alcotest differential ]
