(* Simulated network: virtual clock, HTTP, document store, REST client
   with caching, web services. *)

open Xquery
module I = Xdm_item

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let clock_tests =
  [
    t "time starts at zero" (fun () ->
        check (Alcotest.float 0.0001) "zero" 0. (Virtual_clock.now (Virtual_clock.create ())));
    t "sleep advances" (fun () ->
        let c = Virtual_clock.create () in
        Virtual_clock.sleep c 1.5;
        check (Alcotest.float 0.0001) "1.5" 1.5 (Virtual_clock.now c));
    t "tasks run in fire-time order" (fun () ->
        let c = Virtual_clock.create () in
        let log = ref [] in
        Virtual_clock.schedule c ~delay:2. (fun () -> log := "b" :: !log);
        Virtual_clock.schedule c ~delay:1. (fun () -> log := "a" :: !log);
        Virtual_clock.run_until_idle c;
        check (Alcotest.list Alcotest.string) "order" [ "a"; "b" ] (List.rev !log);
        check (Alcotest.float 0.0001) "time" 2. (Virtual_clock.now c));
    t "equal fire times run in scheduling order" (fun () ->
        let c = Virtual_clock.create () in
        let log = ref [] in
        Virtual_clock.schedule c ~delay:1. (fun () -> log := "first" :: !log);
        Virtual_clock.schedule c ~delay:1. (fun () -> log := "second" :: !log);
        Virtual_clock.run_until_idle c;
        check (Alcotest.list Alcotest.string) "fifo" [ "first"; "second" ] (List.rev !log));
    t "tasks can schedule tasks" (fun () ->
        let c = Virtual_clock.create () in
        let done_ = ref false in
        Virtual_clock.schedule c ~delay:1. (fun () ->
            Virtual_clock.schedule c ~delay:1. (fun () -> done_ := true));
        Virtual_clock.run_until_idle c;
        check Alcotest.bool "ran" true !done_;
        check (Alcotest.float 0.0001) "2s" 2. (Virtual_clock.now c));
    t "run_next returns false when idle" (fun () ->
        check Alcotest.bool "idle" false (Virtual_clock.run_next (Virtual_clock.create ())));
    t "runaway loops hit the budget" (fun () ->
        let c = Virtual_clock.create () in
        let rec loop () = Virtual_clock.schedule c ~delay:0. (fun () -> loop ()) in
        loop ();
        match Virtual_clock.run_until_idle ~max_tasks:100 c with
        | exception Virtual_clock.Budget_exhausted { budget = 100; pending } ->
            check Alcotest.bool "work still pending" true (pending > 0)
        | exception Virtual_clock.Budget_exhausted _ ->
            Alcotest.fail "wrong budget reported"
        | () -> Alcotest.fail "expected budget failure");
    t "to_datetime maps virtual zero to the fixed epoch" (fun () ->
        let c = Virtual_clock.create () in
        check Alcotest.string "epoch" "2008-06-09T12:00:00Z"
          (Xdm_datetime.date_time_to_string (Virtual_clock.to_datetime c)));
  ]

let http_tests =
  [
    t "split_uri" (fun () ->
        check
          (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
          "split"
          (Some ("h:8080", "/a/b?q"))
          (Http_sim.split_uri "http://h:8080/a/b?q");
        check
          (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
          "no path" (Some ("h", "/")) (Http_sim.split_uri "http://h"));
    t "fetch registered doc" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/x.xml" "<x/>";
        let r = Http_sim.fetch http "http://h/x.xml" in
        check Alcotest.int "200" 200 r.Http_sim.status;
        check Alcotest.string "body" "<x/>" r.Http_sim.body);
    t "unknown path is 404, unknown host 502" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/x.xml" "<x/>";
        check Alcotest.int "404" 404 (Http_sim.fetch http "http://h/nope").Http_sim.status;
        check Alcotest.int "502" 502 (Http_sim.fetch http "http://other/x").Http_sim.status);
    t "fetch advances the clock by the latency model" (fun () ->
        let clock = Virtual_clock.create () in
        let http =
          Http_sim.create ~latency:{ Http_sim.base = 0.1; per_kb = 0. } clock
        in
        Http_sim.register_doc http ~uri:"http://h/x.xml" "<x/>";
        ignore (Http_sim.fetch http "http://h/x.xml");
        check (Alcotest.float 0.0001) "0.1s" 0.1 (Virtual_clock.now clock));
    t "per-kb latency scales with body size" (fun () ->
        let clock = Virtual_clock.create () in
        let http =
          Http_sim.create ~latency:{ Http_sim.base = 0.; per_kb = 1. } clock
        in
        Http_sim.register_doc http ~uri:"http://h/big" (String.make 2048 'x');
        ignore (Http_sim.fetch http "http://h/big");
        check (Alcotest.float 0.001) "2s" 2. (Virtual_clock.now clock));
    t "async fetch does not block" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        Http_sim.register_doc http ~uri:"http://h/x.xml" "<x/>";
        let got = ref None in
        Http_sim.fetch_async http "http://h/x.xml" (fun r -> got := Some r.Http_sim.status);
        check (Alcotest.option Alcotest.int) "not yet" None !got;
        check (Alcotest.float 0.0001) "no time passed" 0. (Virtual_clock.now clock);
        Virtual_clock.run_until_idle clock;
        check (Alcotest.option Alcotest.int) "arrived" (Some 200) !got;
        check Alcotest.bool "time advanced" true (Virtual_clock.now clock > 0.));
    t "request statistics" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/x.xml" "<x/>";
        ignore (Http_sim.fetch http "http://h/x.xml");
        ignore (Http_sim.fetch http "http://h/x.xml");
        check Alcotest.int "2 requests" 2 (Http_sim.request_count http ~host:"h");
        check Alcotest.int "bytes" 8 (Http_sim.bytes_served http ~host:"h");
        Http_sim.reset_stats http;
        check Alcotest.int "reset" 0 (Http_sim.total_requests http));
  ]

let store_tests =
  [
    t "put/get round trip" (fun () ->
        let s = Doc_store.create () in
        Doc_store.put_xml s ~name:"a.xml" "<a>1</a>";
        match Doc_store.get s "a.xml" with
        | Some doc -> check Alcotest.string "body" "<a>1</a>" (Dom.serialize doc)
        | None -> Alcotest.fail "missing");
    t "serves documents over http" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let s = Doc_store.create () in
        Doc_store.put_xml s ~name:"a.xml" "<a/>";
        Doc_store.attach s http ~host:"db";
        let r = Http_sim.fetch http (Doc_store.uri_of ~host:"db" ~name:"a.xml") in
        check Alcotest.string "body" "<a/>" r.Http_sim.body;
        check Alcotest.int "404 for missing" 404
          (Http_sim.fetch http "http://db/docs/zzz").Http_sim.status);
    t "index lists documents" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let s = Doc_store.create () in
        Doc_store.put_xml s ~name:"a.xml" "<a/>";
        Doc_store.put_xml s ~name:"b.xml" "<b/>";
        Doc_store.attach s http ~host:"db";
        let r = Http_sim.fetch http "http://db/docs" in
        let doc = Dom.of_string r.Http_sim.body in
        check Alcotest.int "2 docs" 2 (List.length (Dom.get_elements_by_local_name doc "doc")));
  ]

let rest_tests =
  [
    t "rest:get parses xml" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/w.xml" "<weather t='21'/>";
        let client = Rest.make_client http in
        let sctx = Engine.default_static () in
        Rest.install client sctx;
        let r =
          Engine.eval_string ~static:sctx "string(rest:get('http://h/w.xml')/weather/@t)"
        in
        check Alcotest.string "21" "21" (I.to_display_string r));
    t "cache avoids repeat fetches" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/w.xml" "<w/>";
        let client = Rest.make_client ~cache:true http in
        ignore (Rest.get_doc client "http://h/w.xml");
        ignore (Rest.get_doc client "http://h/w.xml");
        ignore (Rest.get_doc client "http://h/w.xml");
        check Alcotest.int "1 network request" 1 (Http_sim.request_count http ~host:"h");
        check Alcotest.int "2 hits" 2 (Rest.cache_hits client);
        check Alcotest.int "1 miss" 1 (Rest.cache_misses client));
    t "the cache keeps the most recently used documents up to its capacity" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let uri i = Printf.sprintf "http://h/d%d.xml" i in
        let n = Rest.cache_capacity + 1 in
        for i = 1 to n do
          Http_sim.register_doc http ~uri:(uri i) "<w/>"
        done;
        let client = Rest.make_client ~cache:true http in
        for i = 1 to n do
          ignore (Rest.get_doc client (uri i))
        done;
        let requests () = Http_sim.request_count http ~host:"h" in
        check Alcotest.int "one request each" n (requests ());
        ignore (Rest.get_doc client (uri n));
        check Alcotest.int "the newest is a hit" n (requests ());
        check Alcotest.int "1 hit" 1 (Rest.cache_hits client);
        ignore (Rest.get_doc client (uri 1));
        check Alcotest.int "the oldest is fetched again" (n + 1) (requests ()));
    t "no cache refetches" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/w.xml" "<w/>";
        let client = Rest.make_client http in
        ignore (Rest.get_doc client "http://h/w.xml");
        ignore (Rest.get_doc client "http://h/w.xml");
        check Alcotest.int "2 requests" 2 (Http_sim.request_count http ~host:"h"));
    t "clear_cache forgets" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/w.xml" "<w/>";
        let client = Rest.make_client ~cache:true http in
        ignore (Rest.get_doc client "http://h/w.xml");
        Rest.clear_cache client;
        ignore (Rest.get_doc client "http://h/w.xml");
        check Alcotest.int "2 requests" 2 (Http_sim.request_count http ~host:"h"));
    t "rest:get error on 404" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://h/x" "<x/>";
        let client = Rest.make_client http in
        let sctx = Engine.default_static () in
        Rest.install client sctx;
        match Engine.eval_string ~static:sctx "rest:get('http://h/zzz')" with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "FODC0002" e.Xq_error.code
        | _ -> Alcotest.fail "expected error");
  ]

(* the paper's §3.4 web service *)
let mul_service = {|
module namespace ex = "www.example.ch" port:2001;
declare option fn:webservice "true";
declare function ex:mul($a, $b) { $a * $b };
declare function ex:greet($n) { concat('hello ', $n) };
|}

let ws_tests =
  [
    t "publish exposes functions" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let svc = Web_service.publish http ~source:mul_service in
        check Alcotest.string "uri" "http://localhost:2001/wsdl" (Web_service.service_uri svc);
        check Alcotest.int "two functions" 2 (List.length (Web_service.functions svc)));
    t "paper §3.4: import module at wsdl and call ab:mul(2,5)" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let svc = Web_service.publish http ~source:mul_service in
        let sctx = Engine.default_static () in
        Xquery.Static_context.set_module_resolver sctx (Web_service.module_resolver http);
        let r =
          Engine.eval_string ~static:sctx
            {|import module namespace ab = "www.example.ch" at "http://localhost:2001/wsdl";
              ab:mul(2, 5)|}
        in
        check Alcotest.string "10" "10" (I.to_display_string r);
        check Alcotest.int "one remote call" 1 (Web_service.call_count svc));
    t "remote call costs latency" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create ~latency:{ Http_sim.base = 0.05; per_kb = 0. } clock in
        let _ = Web_service.publish http ~source:mul_service in
        let sctx = Engine.default_static () in
        Xquery.Static_context.set_module_resolver sctx (Web_service.module_resolver http);
        ignore
          (Engine.eval_string ~static:sctx
             {|import module namespace ab = "www.example.ch" at "http://localhost:2001/wsdl";
               ab:mul(2, 5)|});
        (* one fetch for the wsdl + one for the call *)
        check (Alcotest.float 0.001) "0.1s" 0.1 (Virtual_clock.now clock));
    t "string results come back" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let _ = Web_service.publish http ~source:mul_service in
        let sctx = Engine.default_static () in
        Xquery.Static_context.set_module_resolver sctx (Web_service.module_resolver http);
        let r =
          Engine.eval_string ~static:sctx
            {|import module namespace ab = "www.example.ch" at "http://localhost:2001/wsdl";
              ab:greet('world')|}
        in
        check Alcotest.string "greeting" "hello world" (I.to_display_string r));
    t "module import of plain xquery source over http" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://libs/m.xq"
          ~content_type:"application/xquery"
          "module namespace m = \"urn:m\"; declare function m:twice($x) { 2 * $x };";
        let sctx = Engine.default_static () in
        Xquery.Static_context.set_module_resolver sctx (Web_service.module_resolver http);
        let r =
          Engine.eval_string ~static:sctx
            {|import module namespace m = "urn:m" at "http://libs/m.xq"; m:twice(21)|}
        in
        check Alcotest.string "42" "42" (I.to_display_string r));
    t "missing module fails with XQST0059" (fun () ->
        let sctx = Engine.default_static () in
        match
          Engine.eval_string ~static:sctx
            {|import module namespace z = "urn:z" at "nowhere"; 1|}
        with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "XQST0059" e.Xq_error.code
        | _ -> Alcotest.fail "expected error");
  ]

let suite = clock_tests @ http_tests @ store_tests @ rest_tests @ ws_tests
