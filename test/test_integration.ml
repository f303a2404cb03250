(* End-to-end scenario tests: the paper's three applications (§6), the
   AJAX suggest page (§4.4), the multiplication-table equivalence, and
   the Gears-style offline store (§2.4). *)

module B = Xqib.Browser
module AS = Appserver.App_server

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let () = Minijs.Js_interp.install ()

let run_xq b src = Xqib.Page.run_xquery b b.B.top_window src
let run_str b src = Xdm_item.to_display_string (run_xq b src)

let mashup_tests =
  [
    t "mash-up: one click drives both languages (§6.2)" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let page = Scenarios.setup_mashup http in
        let b = B.create ~clock ~http () in
        Xqib.Page.load b page;
        let doc = B.document b in
        Dom.set_attribute
          (Option.get (Dom.get_element_by_id doc "searchbox"))
          (Xmlb.Qname.make "value") "zurich";
        B.click b (Option.get (Dom.get_element_by_id doc "search"));
        B.run b;
        (* JavaScript side updated the map *)
        let map = Option.get (Dom.get_element_by_id doc "map") in
        check (Alcotest.option Alcotest.string) "map location" (Some "zurich")
          (Dom.attribute_local map "location");
        (* XQuery side integrated the weather + webcams *)
        check Alcotest.string "temperature" "21 C, sunny"
          (run_str b "string(//div[@class='report']/p)");
        check Alcotest.string "webcams" "2" (run_str b "count(//div[@class='report']/img)"));
    t "mash-up routes to the regional weather service" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let page = Scenarios.setup_mashup http in
        let b = B.create ~clock ~http () in
        Xqib.Page.load b page;
        let doc = B.document b in
        Dom.set_attribute
          (Option.get (Dom.get_element_by_id doc "searchbox"))
          (Xmlb.Qname.make "value") "redwood";
        B.click b (Option.get (Dom.get_element_by_id doc "search"));
        B.run b;
        check Alcotest.int "us service called" 1
          (Http_sim.request_count http ~host:"weather-us.example");
        check Alcotest.int "eu service not called" 0
          (Http_sim.request_count http ~host:"weather-eu.example"));
  ]

let elsevier_tests =
  [
    t "reference 2.0: server page renders the article stats (§6.1)" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let e = Scenarios.make_elsevier ~journals:1 ~volumes:1 ~issues:1 ~articles:2 http in
        let html = AS.render_page e.Scenarios.server ~path:e.Scenarios.browse_page_path in
        let doc = Dom.of_string html in
        check Alcotest.int "articles listed" 2
          (List.length (Dom.get_elements_by_local_name doc "li"));
        check Alcotest.bool "stats rendered" true
          (let s = Dom.string_value doc in
           let re = Str.regexp ".*2 refs.*" in
           Str.string_match re (String.map (function '\n' -> ' ' | c -> c) s) 0));
    t "reference 2.0: migrated client renders the same entries" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let e = Scenarios.make_elsevier ~journals:1 ~volumes:1 ~issues:1 ~articles:2 http in
        let server_html =
          AS.render_page e.Scenarios.server ~path:e.Scenarios.browse_page_path
        in
        let server_lis =
          List.map Dom.string_value
            (Dom.get_elements_by_local_name (Dom.of_string server_html) "li")
        in
        let b = B.create ~clock ~http () in
        Xqib.Page.browse b ("http://" ^ AS.host e.Scenarios.server ^ e.Scenarios.client_page_path);
        B.run b;
        let client_lis =
          List.map Dom.string_value
            (Dom.get_elements_by_local_name (B.document b) "li")
        in
        check (Alcotest.list Alcotest.string) "same content" server_lis client_lis);
    t "reference 2.0: offload shape (server evals 0 after migration)" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let e = Scenarios.make_elsevier http in
        let b = B.create ~cache:true ~clock ~http () in
        Xqib.Page.browse b ("http://" ^ AS.host e.Scenarios.server ^ e.Scenarios.client_page_path);
        B.run b;
        for _ = 1 to 5 do
          ignore
            (run_xq b
               "count(rest:get('http://www.elsevier.example/docs/archive.xml')//article)")
        done;
        check Alcotest.int "no server evals" 0 (AS.evaluations e.Scenarios.server);
        check Alcotest.int "articles counted client-side" e.Scenarios.article_count
          (int_of_float
             (Xdm_item.item_number
                (List.hd
                   (run_xq b
                      "count(rest:get('http://www.elsevier.example/docs/archive.xml')//article)")))));
  ]

let suggest_tests =
  [
    t "suggest page narrows hints as the user types (§4.4)" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let page = Scenarios.setup_suggest http in
        let b = B.create ~clock ~http () in
        Xqib.Page.load b page;
        let doc = B.document b in
        let input = Option.get (Dom.get_element_by_id doc "text1") in
        let hint () = Dom.string_value (Option.get (Dom.get_element_by_id doc "txtHint")) in
        B.type_text b input "a";
        B.run b;
        check Alcotest.string "prefix a" "alice, albert" (hint ());
        B.type_text b input "lb";
        B.run b;
        check Alcotest.string "prefix alb" "albert" (hint ());
        check Alcotest.bool "async kept UI free" true (b.B.ui_blocked < 0.001));
  ]

let table_tests =
  [
    t "multiplication tables agree between JS and XQuery" (fun () ->
        let cells page =
          let b = B.create () in
          Xqib.Page.load b page;
          B.run b;
          List.map Dom.string_value
            (Dom.get_elements_by_local_name (B.document b) "td")
        in
        let js = cells (Scenarios.mult_table_js_page 7) in
        let xq = cells (Scenarios.mult_table_xquery_page 7) in
        check Alcotest.int "49 cells" 49 (List.length js);
        check (Alcotest.list Alcotest.string) "equal" js xq);
    t "class attributes agree too (even/odd shading)" (fun () ->
        let classes page =
          let b = B.create () in
          Xqib.Page.load b page;
          List.filter_map
            (fun n -> Dom.attribute_local n "class")
            (Dom.get_elements_by_local_name (B.document b) "td")
        in
        check
          (Alcotest.list Alcotest.string)
          "classes"
          (classes (Scenarios.mult_table_js_page 5))
          (classes (Scenarios.mult_table_xquery_page 5)));
  ]

let store_tests =
  [
    t "store put/get round trip from XQuery" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        ignore (run_xq b "browser:storePut('cfg', <config><k>v</k></config>)");
        check Alcotest.string "read back" "v"
          (run_str b "string(browser:storeGet('cfg')//k)"));
    t "store survives page reloads" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        ignore (run_xq b "browser:storePut('persist', <d>kept</d>)");
        Xqib.Page.load b "<html><body><p>new page</p></body></html>";
        check Alcotest.string "still there" "kept"
          (run_str b "string(browser:storeGet('persist'))"));
    t "store is mutable in place (local database)" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        ignore (run_xq b "browser:storePut('db', <rows/>)");
        ignore (run_xq b "insert node <row n='1'/> into browser:storeGet('db')");
        ignore (run_xq b "insert node <row n='2'/> into browser:storeGet('db')");
        check Alcotest.string "two rows" "2" (run_str b "count(browser:storeGet('db')/row)"));
    t "store is per-origin" (fun () ->
        let b = B.create ~href:"http://a.example/" () in
        Xqib.Page.load b "<html><body/></html>";
        ignore (run_xq b "browser:storePut('secret', <s/>)");
        (* navigate the window to another origin; fresh page context *)
        Xqib.Windows.navigate b.B.top_window "http://evil.example/";
        Xqib.Page.load b "<html><body/></html>";
        check Alcotest.string "invisible" "0"
          (run_str b "count(browser:storeGet('secret'))"));
    t "store delete and list" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        ignore (run_xq b "browser:storePut('a', <a/>)");
        ignore (run_xq b "browser:storePut('b', <b/>)");
        check Alcotest.string "list" "a b" (run_str b "string-join(browser:storeList(), ' ')");
        check Alcotest.string "delete" "true" (run_str b "browser:storeDelete('a')");
        check Alcotest.string "list after" "b" (run_str b "string-join(browser:storeList(), ' ')"));
    t "offline: network fails, store keeps working (§2.4)" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://h/x.xml" "<x/>";
        Xqib.Page.load b "<html><body/></html>";
        ignore (run_xq b "browser:storePut('local', <data>here</data>)");
        b.B.online <- false;
        (match run_xq b "rest:get('http://h/x.xml')" with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "FODC0002" e.Xq_error.code
        | _ -> Alcotest.fail "expected offline failure");
        check Alcotest.string "store still works" "here"
          (run_str b "string(browser:storeGet('local'))");
        check Alcotest.string "online flag" "false" (run_str b "browser:online()"));
  ]

let webservice_integration =
  [
    t "behind + web service: async RPC fills the page (§3.4 + §4.4)" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let _svc =
          Web_service.publish http
            ~source:
              {|module namespace ex = "www.example.ch" port:2001;
                declare function ex:mul($a, $b) { $a * $b };|}
        in
        let b = B.create ~clock ~http () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            import module namespace ab = "www.example.ch" at "http://localhost:2001/wsdl";
            declare updating function local:onResult($readyState, $result) {
              if ($readyState = 4)
              then replace value of node html//input[@name="textbox"]/@value
                   with string($result)
              else ()
            };
            { on event "stateChanged" behind ab:mul(2, 5)
              attach listener local:onResult }
            </script></head>
            <body><input name="textbox" value=""/></body></html>|};
        B.run b;
        let input = List.hd (Dom.get_elements_by_local_name (B.document b) "input") in
        check (Alcotest.option Alcotest.string) "10" (Some "10")
          (Dom.attribute_local input "value"));
  ]

let suite =
  mashup_tests @ elsevier_tests @ suggest_tests @ table_tests @ store_tests
  @ webservice_integration
