(* The browser runtime: pages, browser: functions, the window tree and
   its security, event syntax, behind-async, styles (paper §4 & §5). *)

module I = Xdm_item
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let load_page ?(browser = B.create ()) html =
  Xqib.Page.load browser html;
  browser

let run b src = Xqib.Page.run_xquery b b.B.top_window src
let run_str b src = I.to_display_string (run b src)

let page_tests =
  [
    t "hello world (paper §4.1)" (fun () ->
        let b =
          load_page
            {|<html><head><title>Hello World Page</title>
              <script type="text/xquery">browser:alert("Hello, World!")</script>
              </head><body/></html>|}
        in
        check (Alcotest.list Alcotest.string) "alert" [ "Hello, World!" ] (B.alerts b));
    t "script registers listener, click fires it" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:l($evt, $obj) {
                insert node <hit/> into //div[@id="log"]
              };
              on event "onclick" at //button attach listener local:l
              </script></head>
              <body><button id="b">go</button><div id="log"/></body></html>|}
        in
        let doc = B.document b in
        B.click b (Option.get (Dom.get_element_by_id doc "b"));
        B.click b (Option.get (Dom.get_element_by_id doc "b"));
        check Alcotest.int "two hits" 2
          (List.length (Dom.get_elements_by_local_name doc "hit")));
    t "detach listener stops events (§4.3.1)" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:l($evt, $obj) {
                insert node <hit/> into //body
              };
              on event "onclick" at //button attach listener local:l
              </script></head><body><button id="b"/></body></html>|}
        in
        let doc = B.document b in
        let btn = Option.get (Dom.get_element_by_id doc "b") in
        B.click b btn;
        ignore (run b {|on event "onclick" at //button detach listener local:l|});
        B.click b btn;
        check Alcotest.int "one hit" 1
          (List.length (Dom.get_elements_by_local_name doc "hit")));
    t "trigger event simulates a click (§4.3.1)" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:l($evt, $obj) {
                insert node <hit/> into //body
              };
              on event "onclick" at //input[@id="myButton"] attach listener local:l
              </script></head><body><input id="myButton"/></body></html>|}
        in
        ignore (run b {|trigger event "onclick" at //input[@id="myButton"]|});
        check Alcotest.int "hit" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "hit")));
    t "event node carries type and detail (§4.3.2)" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:l($evt, $obj) {
                insert node <seen type="{$evt/type}" button="{$evt/button}"/> into //body
              };
              on event "onclick" at //button attach listener local:l
              </script></head><body><button/></body></html>|}
        in
        let doc = B.document b in
        B.click b (List.hd (Dom.get_elements_by_local_name doc "button"));
        let seen = List.hd (Dom.get_elements_by_local_name doc "seen") in
        check (Alcotest.option Alcotest.string) "type" (Some "onclick")
          (Dom.attribute_local seen "type");
        check (Alcotest.option Alcotest.string) "button" (Some "0")
          (Dom.attribute_local seen "button"));
    t "$obj is the event target (left/right dispatch)" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:l($evt, $obj) {
                if ($evt/button = 1)
                then insert node attribute left {'y'} into $obj
                else insert node attribute other {'y'} into $obj
              };
              on event "onclick" at //button attach listener local:l
              </script></head><body><button id="b"/></body></html>|}
        in
        let doc = B.document b in
        let btn = Option.get (Dom.get_element_by_id doc "b") in
        B.dispatch b ~detail:[ ("button", "1") ] ~target:btn "onclick";
        check (Alcotest.option Alcotest.string) "left" (Some "y")
          (Dom.attribute_local btn "left"));
    t "xqueryp local:main() runs at load (§5.1)" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xqueryp">
              declare sequential function local:main() {
                insert node <ran/> into //body
              };
              </script></head><body/></html>|}
        in
        check Alcotest.int "ran" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "ran")));
    t "multiple xquery scripts share the page context" (fun () ->
        let b =
          load_page
            {|<html><head>
              <script type="text/xquery">declare variable $greeting := 'hi';</script>
              <script type="text/xquery">browser:alert($greeting)</script>
              </head><body/></html>|}
        in
        check (Alcotest.list Alcotest.string) "shared" [ "hi" ] (B.alerts b));
    t "render counter tracks DOM mutations" (fun () ->
        let b = load_page {|<html><body><div id="d"/></body></html>|} in
        let before = b.B.render_count in
        ignore (run b {|insert node <p/> into //div[@id='d']|});
        check Alcotest.bool "dirtied" true (b.B.render_count > before));
    t "a 50-node insert re-renders once" (fun () ->
        let b = load_page {|<html><body><ul id="c"><li>0</li></ul></body></html>|} in
        let before = b.B.render_count in
        ignore (run b {|insert nodes (for $i in 1 to 50 return <li>{$i}</li>) into //ul|});
        check Alcotest.int "one notification" 1 (b.B.render_count - before);
        check Alcotest.string "inserted in order" "51 50"
          (run_str b "(count(//li), string(//li[last()]))"));
    t "IE uppercase quirk (§5.1)" (fun () ->
        let b = B.create ~uppercase_tags:true () in
        Xqib.Page.load b {|<html><body><div id="x"/></body></html>|};
        check Alcotest.string "uppercase count" "1" (run_str b "count(//DIV)");
        check Alcotest.string "lowercase misses" "0" (run_str b "count(//div)"));
  ]

let browser_function_tests =
  [
    t "browser:screen and navigator (§4.2.2)" (fun () ->
        let b = load_page "<html><body/></html>" in
        check Alcotest.string "height" "1024" (run_str b "string(browser:screen()/height)");
        check Alcotest.string "appName" "Microsoft Internet Explorer"
          (run_str b "string(browser:navigator()/appName)"));
    t "browser-specific code via navigator (paper example)" (fun () ->
        let b =
          B.create ~navigator:Xqib.Bom.firefox ()
        in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            if (browser:navigator()/appName ftcontains "Mozilla")
            then browser:alert("You are running Mozilla")
            else browser:alert("You are running IE")
            </script></head><body/></html>|};
        check (Alcotest.list Alcotest.string) "mozilla" [ "You are running Mozilla" ]
          (B.alerts b));
    t "browser:self()/status update writes back (§4.2.1)" (fun () ->
        let b = load_page "<html><body/></html>" in
        ignore (run b {|replace value of node browser:self()/status with "Welcome"|});
        check Alcotest.string "status" "Welcome" b.B.top_window.Xqib.Windows.status);
    t "window lastModified is exposed" (fun () ->
        let b = load_page "<html><body/></html>" in
        check Alcotest.bool "non-empty" true
          (String.length (run_str b "string(browser:self()/lastModified)") > 0));
    t "window lastModified reads the virtual time of the last write" (fun () ->
        let b = load_page "<html><body/></html>" in
        let at_load = run_str b "string(browser:self()/lastModified)" in
        Virtual_clock.sleep b.B.clock 90.;
        check Alcotest.string "no write yet" at_load
          (run_str b "string(browser:self()/lastModified)");
        let body = List.hd (Dom.get_elements_by_local_name (B.document b) "body") in
        Dom.append_child ~parent:body (Dom.create_text "later");
        let later = Xdm_datetime.date_time_to_string (Virtual_clock.to_datetime b.B.clock) in
        check Alcotest.bool "time moved" true (later <> at_load);
        check Alcotest.string "the write's time" later
          (run_str b "string(browser:self()/lastModified)"));
    t "browser:document of self window" (fun () ->
        let b = load_page {|<html><body><div id="k"/></body></html>|} in
        check Alcotest.string "same doc" "1"
          (run_str b "count(browser:document(browser:self())//div[@id='k'])"));
    t "frames appear under frames/window (§4.2.1)" (fun () ->
        let b = load_page "<html><body/></html>" in
        let frame = Xqib.Windows.create ~name:"leftframe" ~href:"http://localhost/f" () in
        Xqib.Windows.add_frame ~parent:b.B.top_window frame;
        check Alcotest.string "found" "leftframe"
          (run_str b {|string(browser:top()//window[@name="leftframe"]/@name)|}));
    t "location element children (§4.2.1)" (fun () ->
        let b = B.create ~href:"http://www.dbis.ethz.ch/page" () in
        Xqib.Page.load b "<html><body/></html>";
        check Alcotest.string "href" "http://www.dbis.ethz.ch/page"
          (run_str b "string(browser:self()/location/href)");
        check Alcotest.string "host" "www.dbis.ethz.ch"
          (run_str b "string(browser:self()/location/host)"));
    t "windowOpen adds a frame" (fun () ->
        let b = load_page "<html><body/></html>" in
        ignore (run b {|browser:windowOpen("http://localhost/two")|});
        check Alcotest.int "frame count" 1 (List.length b.B.top_window.Xqib.Windows.frames));
    t "windowClose removes it" (fun () ->
        let b = load_page "<html><body/></html>" in
        ignore
          (run b
             {|{ declare variable $w := browser:windowOpen("http://localhost/two");
                 browser:windowClose($w) }|});
        check Alcotest.int "closed" 0 (List.length b.B.top_window.Xqib.Windows.frames));
    t "history functions" (fun () ->
        let b = load_page "<html><body/></html>" in
        Xqib.Windows.navigate b.B.top_window "http://localhost/a";
        Xqib.Windows.navigate b.B.top_window "http://localhost/b";
        Xqib.Windows.history_back b.B.top_window;
        check Alcotest.string "back" "http://localhost/a" b.B.top_window.Xqib.Windows.href;
        Xqib.Windows.history_forward b.B.top_window;
        check Alcotest.string "fwd" "http://localhost/b" b.B.top_window.Xqib.Windows.href;
        Xqib.Windows.history_go b.B.top_window (-2);
        check Alcotest.string "go-2" "http://localhost/" b.B.top_window.Xqib.Windows.href);
    t "browser:write appends text" (fun () ->
        let b = load_page "<html><body/></html>" in
        ignore (run b {|browser:write("written")|});
        check Alcotest.bool "present" true
          (String.length (Dom.string_value (B.document b)) >= 7));
    t "prompt and confirm use configured responses" (fun () ->
        let b = load_page "<html><body/></html>" in
        b.B.prompt_response <- "typed";
        b.B.confirm_response <- false;
        check Alcotest.string "prompt" "typed" (run_str b "browser:prompt('q')");
        check Alcotest.string "confirm" "false" (run_str b "browser:confirm('q')"));
  ]

let security_tests =
  [
    t "cross-origin windows are invisible (§4.2.1)" (fun () ->
        let b = B.create ~href:"http://a.example/" () in
        Xqib.Page.load b "<html><body/></html>";
        let foreign = Xqib.Windows.create ~name:"evil" ~href:"http://other.example/" () in
        Xqib.Windows.add_frame ~parent:b.B.top_window foreign;
        check Alcotest.string "invisible" "0"
          (run_str b {|count(browser:top()//window[@name="evil"])|}));
    t "same-origin frames are visible" (fun () ->
        let b = B.create ~href:"http://a.example/" () in
        Xqib.Page.load b "<html><body/></html>";
        let f = Xqib.Windows.create ~name:"kid" ~href:"http://a.example/sub" () in
        Xqib.Windows.add_frame ~parent:b.B.top_window f;
        check Alcotest.string "visible" "1"
          (run_str b {|count(browser:top()//window[@name="kid"])|}));
    t "cross-origin document() is empty" (fun () ->
        let b = B.create ~href:"http://a.example/" () in
        Xqib.Page.load b "<html><body/></html>";
        let f = Xqib.Windows.create ~name:"kid" ~href:"http://other.example/" () in
        Xqib.Windows.add_frame ~parent:b.B.top_window f;
        (* the shell window node exists in the tree but has no children
           and no registry entry: document() yields empty *)
        check Alcotest.string "empty" "0"
          (run_str b
             {|count(for $w in browser:top()/frames/window return browser:document($w))|}));
    t "fn:doc blocked in the browser (§4.2.1)" (fun () ->
        let b = load_page "<html><body/></html>" in
        match run b "doc('x.xml')" with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" Xq_error.security e.Xq_error.code
        | _ -> Alcotest.fail "expected security error");
    t "fn:put blocked in the browser" (fun () ->
        let b = load_page "<html><body/></html>" in
        match run b "put(<a/>, 'x.xml')" with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" Xq_error.security e.Xq_error.code
        | _ -> Alcotest.fail "expected security error");
    t "Allow_all policy sees everything" (fun () ->
        let b = B.create ~policy:Xqib.Origin.Allow_all ~href:"http://a.example/" () in
        Xqib.Page.load b "<html><body/></html>";
        let f = Xqib.Windows.create ~name:"kid" ~href:"http://other.example/" () in
        Xqib.Windows.add_frame ~parent:b.B.top_window f;
        check Alcotest.string "visible" "1"
          (run_str b {|count(browser:top()//window[@name="kid"])|}));
    t "origin parsing" (fun () ->
        check Alcotest.bool "same" true
          (Xqib.Origin.same_origin (Xqib.Origin.of_uri "http://h/x") (Xqib.Origin.of_uri "http://h/y"));
        check Alcotest.bool "scheme differs" false
          (Xqib.Origin.same_origin (Xqib.Origin.of_uri "http://h/") (Xqib.Origin.of_uri "https://h/"));
        check Alcotest.bool "opaque never matches" false
          (Xqib.Origin.same_origin Xqib.Origin.opaque Xqib.Origin.opaque));
  ]

let style_tests =
  [
    t "set style adds a property (§4.5)" (fun () ->
        let b = load_page {|<html><body><table id="thistable"/></body></html>|} in
        ignore
          (run b {|set style "border-margin" of //table[@id="thistable"] to "2px"|});
        let table = Option.get (Dom.get_element_by_id (B.document b) "thistable") in
        check (Alcotest.option Alcotest.string) "style" (Some "border-margin: 2px")
          (Dom.attribute_local table "style"));
    t "get style reads it back (§4.5)" (fun () ->
        let b = load_page {|<html><body><table id="t" style="color: red"/></body></html>|} in
        check Alcotest.string "read" "red" (run_str b {|get style "color" of //table[@id="t"]|}));
    t "set style updates existing property" (fun () ->
        let b = load_page {|<html><body><div id="d" style="color: red; margin: 1px"/></body></html>|} in
        ignore (run b {|set style "color" of //div[@id="d"] to "blue"|});
        check Alcotest.string "updated" "blue" (run_str b {|get style "color" of //div[@id="d"]|});
        check Alcotest.string "other preserved" "1px" (run_str b {|get style "margin" of //div[@id="d"]|}));
    t "set style of a node that is not an element is XPTY0004" (fun () ->
        (* the statement form and browser:setStyle: the error is recorded
           and the next script runs *)
        List.iter
          (fun script ->
            let b =
              load_page
                ({|<html><head><script type="text/xquery">|} ^ script
               ^ {|</script><script type="text/xquery">browser:alert("next")</script>
                  </head><body><div>x</div></body></html>|})
            in
            check (Alcotest.list Alcotest.string) script
              [ "[XPTY0004] a text node cannot have attributes" ]
              b.B.script_errors;
            check (Alcotest.list Alcotest.string) "the next script ran" [ "next" ] (B.alerts b))
          [ {|set style "color" of //div/text() to "red"|};
            {|browser:setStyle(//div/text(), "color", "red")|} ]);
    t "get style of absent property is empty" (fun () ->
        let b = load_page {|<html><body><div id="d"/></body></html>|} in
        check Alcotest.string "empty" "0" (run_str b {|count(get style "x" of //div[@id="d"])|}));
    t "scripting get style into variable (paper example)" (fun () ->
        let b = load_page {|<html><body><table id="thistable" style="border-margin: 2px"/></body></html>|} in
        check Alcotest.string "2px"
          "2px"
          (run_str b
             {|{ declare variable $mystring as xs:string;
                 set $mystring := get style "border-margin" of //table[@id="thistable"];
                 $mystring }|}));
  ]

let async_tests =
  [
    t "behind runs asynchronously and signals readyState 4 (§4.4)" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://svc/hint.xml" "<hint>alice</hint>";
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:onResult($readyState, $result) {
              if ($readyState = 4)
              then replace value of node //*[@id="txtHint"] with string($result)
              else ()
            };
            declare updating function local:showHint($str) {
              on event "stateChanged" behind rest:get("http://svc/hint.xml")
              attach listener local:onResult
            };
            on event "onkeyup" at //input attach listener local:showHint
            </script></head>
            <body><input id="text1"/><span id="txtHint"/></body></html>|};
        let doc = B.document b in
        let input = Option.get (Dom.get_element_by_id doc "text1") in
        B.type_text b input "a";
        (* not yet: the call is queued, not executed *)
        let hint () = Dom.string_value (Option.get (Dom.get_element_by_id doc "txtHint")) in
        check Alcotest.string "still empty" "" (hint ());
        B.run b;
        check Alcotest.string "hint arrived" "alice" (hint ()));
    t "behind does not block the UI (ui_blocked stays flat)" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://svc/slow.xml" "<x/>";
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare function local:onResult($readyState, $result) { () };
            declare updating function local:go($evt, $obj) {
              on event "stateChanged" behind rest:get("http://svc/slow.xml")
              attach listener local:onResult
            };
            on event "onclick" at //button attach listener local:go
            </script></head><body><button id="b"/></body></html>|};
        let btn = Option.get (Dom.get_element_by_id (B.document b) "b") in
        B.click b btn;
        check (Alcotest.float 0.001) "not blocked" 0. b.B.ui_blocked;
        B.run b;
        check Alcotest.bool "work happened later" true (Virtual_clock.now b.B.clock > 0.));
    t "synchronous rest call blocks the UI" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://svc/slow.xml" "<x/>";
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:go($evt, $obj) {
              replace value of node //span with string(rest:get("http://svc/slow.xml")/x)
            };
            on event "onclick" at //button attach listener local:go
            </script></head><body><button id="b"/><span/></body></html>|};
        let btn = Option.get (Dom.get_element_by_id (B.document b) "b") in
        B.click b btn;
        check Alcotest.bool "blocked" true (b.B.ui_blocked > 0.));
    t "readyState 1 signal precedes completion" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://svc/x.xml" "<x/>";
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:onResult($readyState, $result) {
              insert node <state n="{$readyState}"/> into //body
            };
            { on event "stateChanged" behind rest:get("http://svc/x.xml")
              attach listener local:onResult }
            </script></head><body/></html>|};
        B.run b;
        let states =
          List.filter_map
            (fun n -> Dom.attribute_local n "n")
            (Dom.get_elements_by_local_name (B.document b) "state")
        in
        check (Alcotest.list Alcotest.string) "signals" [ "1"; "4" ] states);
  ]

let error_isolation_tests =
  [
    t "a failing listener does not abort dispatch" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare function local:bad($evt, $obj) { error(QName('u','BOOM'), 'handler died') };
              declare updating function local:good($evt, $obj) {
                insert node <ok/> into //body
              };
              ( on event "onclick" at //button attach listener local:bad,
                on event "onclick" at //button attach listener local:good )
              </script></head><body><button id="b"/></body></html>|}
        in
        let doc = B.document b in
        B.click b (Option.get (Dom.get_element_by_id doc "b"));
        (* the good listener still ran *)
        check Alcotest.int "good ran" 1
          (List.length (Dom.get_elements_by_local_name doc "ok"));
        (* and the error is recorded in the console *)
        check Alcotest.bool "error recorded" true
          (List.exists
             (fun m ->
               let flat = String.map (function '\n' -> ' ' | c -> c) m in
               Str.string_match (Str.regexp ".*BOOM.*") flat 0)
             b.B.script_errors));
    t "failing listener discards its partial updates" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare sequential function local:bad($evt, $obj) {
                insert node <partial/> into //body;
                error(QName('u','MID'), 'died midway');
              };
              on event "onclick" at //button attach listener local:bad
              </script></head><body><button id="b"/></body></html>|}
        in
        let doc = B.document b in
        B.click b (Option.get (Dom.get_element_by_id doc "b"));
        (* sequential semantics applied the first statement before the
           error; the pending (unapplied) list after the error is
           dropped, and dispatch survives *)
        check Alcotest.bool "dispatch survived" true (b.B.script_errors <> []));
    t "a failing behind computation signals readyState 0 and the loop runs on" (fun () ->
        (* a failed cast of an untyped operand, and an effective boolean
           value of two items, in either evaluator *)
        List.iter
          (fun (computation, code) ->
            List.iter
              (fun compiled_eval ->
                Xmlb.Ablation.with_ { Xmlb.Ablation.current with compiled_eval } (fun () ->
                    let b =
                      load_page
                        (Printf.sprintf
                           {|<html><head><script type="text/xquery">
                             declare updating function local:done($readyState, $result) {
                               insert node <state n="{$readyState}"/> into //body
                             };
                             on event "stateChanged" behind %s attach listener local:done
                             </script></head><body/></html>|}
                           computation)
                    in
                    B.run b;
                    check
                      (Alcotest.list Alcotest.string)
                      computation [ code ]
                      (List.map (fun m -> String.sub m 1 8) b.B.script_errors);
                    check (Alcotest.list Alcotest.string) "signals" [ "1"; "0" ]
                      (List.filter_map
                         (fun n -> Dom.attribute_local n "n")
                         (Dom.get_elements_by_local_name (B.document b) "state"))))
              [ true; false ])
          [ ("(<a>x</a> = 1)", "FORG0001"); ("(if ((1,2)) then 1 else 0)", "FORG0006") ]);
    t "a failing inline handler is recorded and its updates dropped" (fun () ->
        let b =
          load_page
            {|<html><body><button id="b"
              onclick="(insert node &lt;x/> into //body, xs:integer('x'))"/></body></html>|}
        in
        B.click b (Option.get (Dom.get_element_by_id (B.document b) "b"));
        check (Alcotest.list Alcotest.string) "recorded" [ "FORG0001" ]
          (List.map (fun m -> String.sub m 1 8) b.B.script_errors);
        check Alcotest.string "a later script applies nothing" "0" (run_str b "count(//x)");
        check Alcotest.int "no x" 0
          (List.length (Dom.get_elements_by_local_name (B.document b) "x")));
  ]

let timer_tests =
  [
    t "browser:setTimeout defers a named function" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:tick() {
                insert node <tick/> into //body
              };
              browser:setTimeout("local:tick", 250)
              </script></head><body/></html>|}
        in
        check Alcotest.int "not yet" 0
          (List.length (Dom.get_elements_by_local_name (B.document b) "tick"));
        B.run b;
        check Alcotest.int "fired" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "tick"));
        check (Alcotest.float 0.001) "after 0.25s" 0.25 (Virtual_clock.now b.B.clock));
    t "timers chain on the event loop" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare variable $n := 3;
              declare updating function local:tick() {
                insert node <tick/> into //body,
                (if (count(//tick) lt 2)
                 then browser:setTimeout("local:tick", 100)
                 else ())
              };
              browser:setTimeout("local:tick", 100)
              </script></head><body/></html>|}
        in
        B.run b;
        (* snapshot semantics: the count is read before the same run's
           insert applies, so the chain runs for counts 0 and 1 and the
           final run still inserts — three ticks in total *)
        check Alcotest.int "chained" 3
          (List.length (Dom.get_elements_by_local_name (B.document b) "tick")));
  ]

let page_robustness_tests =
  [
    t "a script with a syntax error does not abort the page load" (fun () ->
        let b =
          load_page
            {|<html><head>
              <script type="text/xquery">this is (not valid XQuery</script>
              <script type="text/xquery">browser:alert("still ran")</script>
              </head><body><p>content</p></body></html>|}
        in
        check (Alcotest.list Alcotest.string) "later script ran" [ "still ran" ]
          (B.alerts b);
        check Alcotest.bool "error recorded" true (b.B.script_errors <> []);
        check Alcotest.int "page parsed" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "p")));
    t "a JS script error does not abort the page load" (fun () ->
        let b =
          load_page
            {|<html><head>
              <script type="text/javascript">nosuchfunction();</script>
              <script type="text/xquery">browser:alert("xq ran")</script>
              </head><body/></html>|}
        in
        check (Alcotest.list Alcotest.string) "xq ran" [ "xq ran" ] (B.alerts b);
        check Alcotest.bool "js error recorded" true (b.B.script_errors <> []));
    t "a runtime error in a script is recorded" (fun () ->
        let b =
          load_page
            {|<html><head>
              <script type="text/xquery">1 div 0</script>
              </head><body/></html>|}
        in
        check Alcotest.bool "recorded" true
          (List.exists
             (fun m -> String.length m > 0)
             b.B.script_errors));
    t "loading a page finds its scripts and handlers without allocating per element" (fun () ->
        (* the load's walks over the elements and their attributes cost
           no allocation: beyond the parse, a load of a page with no
           script and no handler allocates a constant *)
        let html =
          "<html><body><ul>"
          ^ String.concat ""
              (List.init 2_000 (fun i -> Printf.sprintf {|<li class="c" id="i%d">item</li>|} i))
          ^ "</ul></body></html>"
        in
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let b = B.create () in
        Xqib.Page.load b html;
        let parse = words (fun () -> ignore (Sys.opaque_identity (Dom.of_string html))) in
        let load = words (fun () -> Xqib.Page.load b html) in
        let per_element = (load -. parse) /. 2_003. in
        if per_element > 0.1 then
          Alcotest.failf "minor words per element beyond the parse: %.2f (bound 0.1)" per_element);
    t "an update list that fails conflict detection is discarded" (fun () ->
        (* the page's scripts share one PUL: the rejected renames must
           not come back in the next two scripts, in either evaluator *)
        List.iter
          (fun compiled_eval ->
            Xmlb.Ablation.with_ { Xmlb.Ablation.current with compiled_eval } (fun () ->
                let b =
                  load_page
                    {|<html><head>
                      <script type="text/xquery">(rename node //a as "b", rename node //a as "c")</script>
                      <script type="text/xquery">insert node <x/> into //div[@id = "r2"]</script>
                      <script type="text/xquery">browser:alert(string-join(//div/*/local-name(), ','))</script>
                      </head><body><div id="r1"><a/></div><div id="r2"/></body></html>|}
                in
                check
                  (Alcotest.list Alcotest.string)
                  "one XUDY0015" [ "XUDY0015" ]
                  (List.map (fun m -> String.sub m 1 8) b.B.script_errors);
                check (Alcotest.list Alcotest.string) "the insert and the read ran" [ "a,x" ] (B.alerts b)))
          [ true; false ]);
  ]

let suite =
  page_tests @ browser_function_tests @ security_tests @ style_tests
  @ async_tests @ error_isolation_tests @ timer_tests @ page_robustness_tests
