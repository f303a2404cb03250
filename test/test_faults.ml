(* Fault injection and resilience: the deterministic fault model of
   Http_sim, the Retry policy (attempts, timeouts, backoff), the
   Local_store fallback, the behind error path, and the flaky §6.1
   scenario. Everything runs in virtual time, so every assertion is
   about an exact, replayable schedule. *)

module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let make_http ?(base = 0.1) () =
  let clock = Virtual_clock.create () in
  let http = Http_sim.create ~latency:{ Http_sim.base; per_kb = 0. } clock in
  Http_sim.register_doc http ~uri:"http://h/x.xml" "<x>payload</x>";
  (clock, http)

(* run [n] requests against a fault spec and record the observable
   trace: (status, virtual arrival time) per request *)
let trace ?host ~seed ~spec ?(policy = Retry.disabled) ?(n = 12) () =
  let clock, http = make_http () in
  Http_sim.set_faults http ?host ~seed spec;
  let prng = Prng.create ~seed in
  List.init n (fun _ ->
      let r = Retry.fetch ~policy ~prng http "http://h/x.xml" in
      (r.Http_sim.status, Virtual_clock.now clock))

let trace_testable = Alcotest.(list (pair int (float 1e-9)))

let lossy = { Http_sim.no_faults with Http_sim.drop = 0.3; http_5xx = 0.2 }

let determinism_tests =
  [
    t "same seed replays the same fault schedule" (fun () ->
        let a = trace ~seed:7 ~spec:lossy () in
        let b = trace ~seed:7 ~spec:lossy () in
        check trace_testable "identical" a b;
        (* and the schedule actually contains faults *)
        check Alcotest.bool "some faults" true
          (List.exists (fun (s, _) -> s <> 200) a));
    t "different seeds give different schedules" (fun () ->
        let a = trace ~seed:7 ~spec:lossy () in
        let b = trace ~seed:8 ~spec:lossy () in
        check Alcotest.bool "differ" true (a <> b));
    t "retry schedule (with jittered backoff) replays too" (fun () ->
        let policy = { Retry.default with Retry.max_attempts = 5 } in
        let a = trace ~seed:3 ~spec:lossy ~policy () in
        let b = trace ~seed:3 ~spec:lossy ~policy () in
        check trace_testable "identical" a b);
    t "rate 0 is byte-identical to no fault model" (fun () ->
        let bare = trace ~seed:1 ~spec:Http_sim.no_faults () in
        let clock, http = make_http () in
        (* no set_faults at all *)
        let none =
          List.init 12 (fun _ ->
              let r = Http_sim.fetch http "http://h/x.xml" in
              (r.Http_sim.status, Virtual_clock.now clock))
        in
        check trace_testable "identical" bare none;
        check Alcotest.int "nothing injected" 0
          (Http_sim.total_injected_faults http));
    t "per-host override only hits that host" (fun () ->
        let clock, http = make_http () in
        ignore clock;
        Http_sim.register_doc http ~uri:"http://stable/y.xml" "<y/>";
        Http_sim.set_faults http ~host:"h" ~seed:5
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        check Alcotest.int "flaky host drops" 0
          (Http_sim.fetch http "http://h/x.xml").Http_sim.status;
        check Alcotest.int "other host fine" 200
          (Http_sim.fetch http "http://stable/y.xml").Http_sim.status);
    t "fault counters count by kind" (fun () ->
        let _, http = make_http () in
        Http_sim.set_faults http ~seed:11
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        for _ = 1 to 4 do
          ignore (Http_sim.fetch http "http://h/x.xml")
        done;
        check Alcotest.int "4 drops" 4 (Http_sim.injected_faults http Http_sim.Drop);
        check Alcotest.int "total" 4 (Http_sim.total_injected_faults http);
        check Alcotest.int "0 oks" 0 (Http_sim.outcome_count http ~host:"h" ~ok:true);
        check Alcotest.int "4 fails" 4
          (Http_sim.outcome_count http ~host:"h" ~ok:false));
  ]

let retry_tests =
  [
    t "retry until success consumes the expected attempts" (fun () ->
        (* drop everything: 4 attempts, 3 retries, final failure *)
        let _, http = make_http () in
        Http_sim.set_faults http ~seed:2
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        let stats = Retry.make_stats () in
        let policy = { Retry.default with Retry.max_attempts = 4 } in
        let r = Retry.fetch ~policy ~stats http "http://h/x.xml" in
        check Alcotest.int "status 0" 0 r.Http_sim.status;
        check Alcotest.int "4 requests on the wire" 4
          (Http_sim.request_count http ~host:"h");
        check Alcotest.int "4 attempts" 4 stats.Retry.attempts;
        check Alcotest.int "3 retries" 3 stats.Retry.retries;
        check Alcotest.int "exhausted once" 1 stats.Retry.exhausted);
    t "first success stops the retrying" (fun () ->
        (* a handler that fails twice then succeeds, no PRNG needed *)
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let calls = ref 0 in
        Http_sim.register_host http ~host:"h" (fun _ ->
            incr calls;
            if !calls <= 2 then
              { Http_sim.status = 503; body = "busy"; content_type = "text/plain";
                retry_after = None }
            else Http_sim.ok "<x/>");
        let stats = Retry.make_stats () in
        let policy = { Retry.default with Retry.max_attempts = 10 } in
        let r = Retry.fetch ~policy ~stats http "http://h/x.xml" in
        check Alcotest.int "200" 200 r.Http_sim.status;
        check Alcotest.int "3 calls" 3 !calls;
        check Alcotest.int "2 retries" 2 stats.Retry.retries;
        check Alcotest.int "1 success" 1 stats.Retry.successes);
    t "permanent failures are not retried" (fun () ->
        let _, http = make_http () in
        let stats = Retry.make_stats () in
        let r = Retry.fetch ~stats http "http://h/missing" in
        check Alcotest.int "404" 404 r.Http_sim.status;
        check Alcotest.int "one attempt" 1 stats.Retry.attempts;
        check Alcotest.int "no retries" 0 stats.Retry.retries);
    t "timeout fires at exactly the configured virtual deadline" (fun () ->
        (* latency 0.4 > timeout 0.15: the clock must advance by the
           timeout, not the full latency *)
        let clock, http = make_http ~base:0.4 () in
        let policy =
          {
            Retry.disabled with
            Retry.max_attempts = 1;
            attempt_timeout = Some 0.15;
          }
        in
        let stats = Retry.make_stats () in
        let r = Retry.fetch ~policy ~stats http "http://h/x.xml" in
        check Alcotest.int "408" Retry.timeout_status r.Http_sim.status;
        check (Alcotest.float 1e-9) "deadline" 0.15 (Virtual_clock.now clock);
        check Alcotest.int "counted" 1 stats.Retry.timeouts);
    t "fast responses beat the timeout" (fun () ->
        let clock, http = make_http ~base:0.05 () in
        let policy =
          { Retry.disabled with Retry.attempt_timeout = Some 0.15 }
        in
        let r = Retry.fetch ~policy http "http://h/x.xml" in
        check Alcotest.int "200" 200 r.Http_sim.status;
        check (Alcotest.float 1e-9) "latency, not deadline" 0.05
          (Virtual_clock.now clock));
    t "un-jittered backoff curve is the closed form" (fun () ->
        let p =
          {
            Retry.default with
            Retry.backoff_base = 0.1;
            backoff_factor = 2.;
            backoff_max = 0.5;
            jitter = 0.;
          }
        in
        check (Alcotest.float 1e-9) "1st" 0.1 (Retry.backoff p ~attempt:1);
        check (Alcotest.float 1e-9) "2nd" 0.2 (Retry.backoff p ~attempt:2);
        check (Alcotest.float 1e-9) "3rd" 0.4 (Retry.backoff p ~attempt:3);
        check (Alcotest.float 1e-9) "capped" 0.5 (Retry.backoff p ~attempt:4);
        check (Alcotest.float 1e-9) "sum over 4 failures" 1.2
          (Retry.backoff_total p ~attempts:5));
    t "corrupted bodies are retried via fetch_check" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let calls = ref 0 in
        Http_sim.register_host http ~host:"h" (fun _ ->
            incr calls;
            if !calls = 1 then Http_sim.ok "<x>trunca"  (* malformed *)
            else Http_sim.ok "<x>whole</x>");
        let check_xml (r : Http_sim.response) =
          match Dom.of_string r.Http_sim.body with
          | doc -> Ok doc
          | exception _ -> Error "not xml"
        in
        match Retry.fetch_check ~check:check_xml http "http://h/x.xml" with
        | Ok doc ->
            check Alcotest.int "2 calls" 2 !calls;
            check Alcotest.string "whole body" "whole" (Dom.string_value doc)
        | Error _ -> Alcotest.fail "expected recovery");
  ]

let fallback_tests =
  [
    t "exhausted retries fall back to the Local_store copy" (fun () ->
        let b = B.create ~net_fallback:true () in
        Http_sim.register_doc b.B.http ~uri:"http://h/x.xml" "<x>gold</x>";
        let q = "string(rest:get('http://h/x.xml')/x)" in
        let w = b.B.top_window in
        Xqib.Page.load b "<html><body/></html>";
        check Alcotest.string "first fetch over the wire" "gold"
          (Xdm_item.to_display_string (Xqib.Page.run_xquery b w q));
        (* now the network dies completely *)
        Http_sim.set_faults b.B.http ~seed:1
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        check Alcotest.string "served from the store" "gold"
          (Xdm_item.to_display_string (Xqib.Page.run_xquery b w q));
        check Alcotest.int "one fallback hit" 1 (Rest.fallback_hits b.B.rest));
    t "without net_fallback the same failure raises FODC0002" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://h/x.xml" "<x>gold</x>";
        let q = "string(rest:get('http://h/x.xml')/x)" in
        let w = b.B.top_window in
        Xqib.Page.load b "<html><body/></html>";
        ignore (Xqib.Page.run_xquery b w q);
        Http_sim.set_faults b.B.http ~seed:1
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        match Xqib.Page.run_xquery b w q with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "FODC0002" e.Xq_error.code
        | _ -> Alcotest.fail "expected FODC0002");
    t "fallback serves a pristine copy, not the page's mutated one" (fun () ->
        let b = B.create ~net_fallback:true () in
        Http_sim.register_doc b.B.http ~uri:"http://h/x.xml" "<x>gold</x>";
        let w = b.B.top_window in
        Xqib.Page.load b "<html><body/></html>";
        (* fetch and mutate the fetched tree *)
        ignore
          (Xqib.Page.run_xquery b w
             "replace value of node rest:get('http://h/x.xml')/x with 'mutated'");
        Http_sim.set_faults b.B.http ~seed:1
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        check Alcotest.string "original content" "gold"
          (Xdm_item.to_display_string
             (Xqib.Page.run_xquery b w "string(rest:get('http://h/x.xml')/x)")));
  ]

let behind_error_page =
  {|<html><head><script type="text/xquery">
    declare updating function local:onResult($readyState, $result) {
      insert node <state n="{$readyState}" msg="{string($result)}"/> into //body
    };
    { on event "stateChanged" behind rest:get("http://svc/hint.xml")
      attach listener local:onResult }
    </script></head><body/></html>|}

let behind_states b =
  List.map
    (fun n -> Option.value ~default:"" (Dom.attribute_local n "n"))
    (Dom.get_elements_by_local_name (B.document b) "state")

let behind_tests =
  [
    t "behind failure signals readyState 1 then 0 with a message" (fun () ->
        let b = B.create () in
        (* host exists but the network drops every request *)
        Http_sim.register_doc b.B.http ~uri:"http://svc/hint.xml" "<hint/>";
        Http_sim.set_faults b.B.http ~seed:4
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        Xqib.Page.load b behind_error_page;
        B.run b;
        check (Alcotest.list Alcotest.string) "signals" [ "1"; "0" ]
          (behind_states b);
        (* the error message reaches the listener and the console *)
        let msgs =
          List.filter_map
            (fun n -> Dom.attribute_local n "msg")
            (Dom.get_elements_by_local_name (B.document b) "state")
        in
        check Alcotest.bool "message in $result" true
          (List.exists (fun m -> m <> "") msgs);
        check Alcotest.bool "logged to the error console" true
          (b.B.script_errors <> []));
    t "behind success under faults still ends in readyState 4" (fun () ->
        (* retries absorb a 503-then-ok server *)
        let b = B.create ~retry:{ Retry.default with Retry.max_attempts = 5 } () in
        let calls = ref 0 in
        Http_sim.register_host b.B.http ~host:"svc" (fun _ ->
            incr calls;
            if !calls = 1 then
              { Http_sim.status = 503; body = "busy"; content_type = "text/plain";
                retry_after = None }
            else Http_sim.ok "<hint/>");
        Xqib.Page.load b behind_error_page;
        B.run b;
        check (Alcotest.list Alcotest.string) "signals" [ "1"; "4" ]
          (behind_states b);
        check Alcotest.int "one retry" 2 !calls);
    t "a failed behind does not stop the event loop" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://svc/hint.xml" "<hint/>";
        Http_sim.set_faults b.B.http ~seed:4
          { Http_sim.no_faults with Http_sim.drop = 1.0 };
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:onResult($readyState, $result) { () };
            declare updating function local:tick($evt, $obj) {
              insert node <tick/> into //body
            };
            ( on event "stateChanged" behind rest:get("http://svc/hint.xml")
              attach listener local:onResult,
              on event "onclick" at //button attach listener local:tick )
</script></head><body><button id="go"/></body></html>|};
        B.run b;
        (* the behind failed; clicks must still dispatch *)
        let btn = Option.get (Dom.get_element_by_id (B.document b) "go") in
        B.click b btn;
        B.run b;
        check Alcotest.int "tick ran" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "tick")));
  ]

let scenario_tests =
  [
    t "flaky Elsevier: baseline loses work, resilient client does not" (fun () ->
        let base =
          Scenarios.run_elsevier_flaky ~rate:0.3 ~seed:42 ~resilient:false ()
        in
        let res =
          Scenarios.run_elsevier_flaky ~rate:0.3 ~seed:42 ~resilient:true ()
        in
        check Alcotest.bool "baseline lost something" true
          (base.Scenarios.pages_lost + base.Scenarios.queries_failed > 0);
        check Alcotest.int "resilient loses no pages" 0 res.Scenarios.pages_lost;
        check Alcotest.int "resilient loses no queries" 0
          res.Scenarios.queries_failed;
        check Alcotest.int "all visits answered" res.Scenarios.visits
          res.Scenarios.queries_ok;
        check Alcotest.bool "paid for it in retries" true
          (res.Scenarios.retries > 0));
    t "flaky Elsevier is deterministic per (rate, seed)" (fun () ->
        let r1 = Scenarios.run_elsevier_flaky ~rate:0.3 ~seed:9 ~resilient:true () in
        let r2 = Scenarios.run_elsevier_flaky ~rate:0.3 ~seed:9 ~resilient:true () in
        check Alcotest.bool "identical reports" true (r1 = r2));
    t "rate 0 resilient matches rate 0 baseline exactly" (fun () ->
        let base =
          Scenarios.run_elsevier_flaky ~rate:0. ~seed:1 ~resilient:false ()
        in
        let res = Scenarios.run_elsevier_flaky ~rate:0. ~seed:1 ~resilient:true () in
        check Alcotest.int "same requests" base.Scenarios.server_requests
          res.Scenarios.server_requests;
        check (Alcotest.float 1e-9) "same virtual time" base.Scenarios.elapsed
          res.Scenarios.elapsed;
        check Alcotest.int "no retries" 0 res.Scenarios.retries);
  ]

let suite =
  determinism_tests @ retry_tests @ fallback_tests @ behind_tests
  @ scenario_tests
