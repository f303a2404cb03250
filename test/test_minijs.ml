(* The JavaScript-subset baseline interpreter and its DOM API (§2.1,
   §2.2), including coexistence with XQuery on one page (§6.2). *)

module J = Minijs.Js_interp
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let () = J.install ()

(* [n] list items as markup *)
let items n = String.concat "" (List.init n (fun i -> Printf.sprintf "<li>item %d</li>" i))

let fresh () =
  let b = B.create () in
  Xqib.Page.load b "<html><body/></html>";
  b

let eval_str b src = J.to_display (J.eval_in_window b b.B.top_window src)

let e name expected src =
  t name (fun () ->
      let b = fresh () in
      check Alcotest.string src expected (eval_str b src))

let language_tests =
  [
    e "arithmetic" "7" "1 + 2 * 3";
    e "string concat with +" "ab1" "'a' + 'b' + 1";
    e "division is float" "2.5" "5 / 2";
    e "modulo" "1" "7 % 2";
    e "comparison" "true" "2 >= 2";
    e "equality coerces" "true" "1 == '1'";
    e "strict equality does not" "false" "1 === '1'";
    e "logical short circuit value" "fallback" "null || 'fallback'";
    e "ternary" "yes" "1 < 2 ? 'yes' : 'no'";
    e "unary not" "false" "!1";
    e "typeof" "number" "typeof 42";
    e "string methods" "HELLO" "'hello'.toUpperCase()";
    e "indexOf" "2" "'abcd'.indexOf('c')";
    e "substring" "ell" "'hello'.substring(1, 4)";
    e "split and join" "a-b-c" "'a,b,c'.split(',').join('-')";
    e "array literal and length" "3" "[1,2,3].length";
    e "array index" "20" "[10,20,30][1]";
    e "array push" "4" "(function(){ var a = [1,2,3]; a.push(9); return a.length; })()";
    e "object literal property" "7" "({x: 7}).x";
    e "Math.floor" "3" "Math.floor(3.9)";
    e "parseInt" "42" "parseInt('42.9')";
    e "isNaN" "true" "isNaN(parseFloat('z'))";
    e "undefined display" "undefined" "undefined";
  ]

let statement_tests =
  [
    t "var, for loop and accumulation" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var total = 0; for (var i = 1; i <= 10; i++) { total += i; }";
        check Alcotest.string "sum" "55" (eval_str b "total"));
    t "while with break and continue" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var n = 0; var i = 0;\n\
           while (true) { i++; if (i % 2 == 0) continue; if (i > 9) break; n += i; }";
        check Alcotest.string "odd sum" "25" (eval_str b "n"));
    t "functions and closures" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "function mk(x) { return function(y) { return x + y; }; } var add5 = mk(5);";
        check Alcotest.string "closure" "12" (eval_str b "add5(7)"));
    t "recursion" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "function fact(n) { if (n <= 1) return 1; return n * fact(n - 1); }";
        check Alcotest.string "5!" "120" (eval_str b "fact(5)"));
    t "for-in over object keys" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var o = {a: 1, b: 2}; var n = 0; for (var k in o) { n += o[k]; }";
        check Alcotest.string "sum" "3" (eval_str b "n"));
    t "implicit globals assigned in functions" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window "function f() { leaked = 9; } f();";
        check Alcotest.string "leaked" "9" (eval_str b "leaked"));
    t "syntax error raises" (fun () ->
        let b = fresh () in
        match J.run_script b b.B.top_window "var = ;" with
        | exception Minijs.Js_lexer.Js_syntax_error _ -> ()
        | () -> Alcotest.fail "expected syntax error");
    t "runtime error raises" (fun () ->
        let b = fresh () in
        match J.run_script b b.B.top_window "nosuchfunction();" with
        | exception J.Js_error _ -> ()
        | () -> Alcotest.fail "expected Js_error");
  ]

let dom_tests =
  [
    t "getElementById and textContent" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d">hello</div></body></html>|};
        check Alcotest.string "text" "hello"
          (eval_str b "document.getElementById('d').textContent"));
    t "createElement / appendChild / setAttribute" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"/></body></html>|};
        J.run_script b b.B.top_window
          "var el = document.createElement('span');\n\
           el.setAttribute('class', 'x');\n\
           el.appendChild(document.createTextNode('t'));\n\
           document.getElementById('d').appendChild(el);";
        let doc = B.document b in
        let span = List.hd (Dom.get_elements_by_local_name doc "span") in
        check (Alcotest.option Alcotest.string) "class" (Some "x")
          (Dom.attribute_local span "class");
        check Alcotest.string "text" "t" (Dom.string_value span));
    t "innerHTML set parses markup" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"/></body></html>|};
        J.run_script b b.B.top_window
          "document.getElementById('d').innerHTML = '<b>bold</b> text';";
        let doc = B.document b in
        check Alcotest.int "b created" 1
          (List.length (Dom.get_elements_by_local_name doc "b")));
    t "replaceChild moves a node attached elsewhere" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><body><div id="p1"><i id="a"/><i id="b"/></div>
            <div id="p2"><i id="c"/></div></body></html>|};
        J.run_script b b.B.top_window
          "document.getElementById('p2').replaceChild(document.getElementById('a'),\n\
           document.getElementById('c'));";
        let doc = B.document b in
        let ids el =
          List.filter_map
            (fun c -> Dom.attribute_local c "id")
            (Dom.children (Option.get (Dom.get_element_by_id doc el)))
        in
        check Alcotest.(list string) "p1 keeps b" [ "b" ] (ids "p1");
        check Alcotest.(list string) "p2 holds a" [ "a" ] (ids "p2");
        check Alcotest.string "one i under p1" "1"
          (Xdm_item.to_display_string
             (Xqib.Page.run_xquery b b.B.top_window {|count(//div[@id = "p1"]/i)|})));
    t "innerHTML of 500 items is one write" (fun () ->
        let b = B.create () in
        Xqib.Page.load b ("<html><body><ul id=\"d\">" ^ items 300 ^ "</ul></body></html>");
        let writes = ref 0 in
        ignore (Dom.observe ~root:(B.document b) (fun _ -> incr writes));
        J.run_script b b.B.top_window
          ("document.getElementById('d').innerHTML = '" ^ items 500 ^ "';");
        check Alcotest.int "notifications" 1 !writes;
        check Alcotest.int "items" 500
          (List.length (Dom.get_elements_by_local_name (B.document b) "li")));
    t "innerHTML and document.write allocate a flat amount per item" (fun () ->
        let per_item script n =
          let b = B.create () in
          Xqib.Page.load b {|<html><body><ul id="d"/></body></html>|};
          let src = script (items n) in
          let before = Gc.minor_words () in
          J.run_script b b.B.top_window src;
          (Gc.minor_words () -. before) /. float_of_int n
        in
        List.iter
          (fun script ->
            ignore (per_item script 200);
            let small = per_item script 200 and large = per_item script 2_000 in
            if large > 1.2 *. small then
              Alcotest.failf "minor words per item: %.0f at 2 000, %.0f at 200 (bound 1.2x) in %s" large
                small (script "…"))
          [
            (fun m -> "document.getElementById('d').innerHTML = '" ^ m ^ "';");
            (fun m -> "document.write('" ^ m ^ "');");
          ]);
    t "innerHTML allocates a flat amount per old child" (fun () ->
        let per_child n =
          let b = B.create () in
          Xqib.Page.load b ("<html><body><ul id=\"d\">" ^ items n ^ "</ul></body></html>");
          let before = Gc.minor_words () in
          J.run_script b b.B.top_window "document.getElementById('d').innerHTML = '<li/>';";
          (Gc.minor_words () -. before) /. float_of_int n
        in
        ignore (per_child 200);
        let small = per_child 200 and large = per_child 2_000 in
        if large > 1.2 *. small then
          Alcotest.failf "minor words per old child: %.0f at 2 000, %.0f at 200 (bound 1.2x)" large
            small);
    t "markup that is not well-formed becomes text" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"/></body></html>|};
        J.run_script b b.B.top_window
          "document.getElementById('d').innerHTML = '<b>open'; document.write('a < b');";
        let doc = B.document b in
        check Alcotest.string "innerHTML" "<b>open"
          (Dom.string_value (Option.get (Dom.get_element_by_id doc "d")));
        check Alcotest.string "write" "<b>opena < b"
          (Dom.string_value (List.hd (Dom.get_elements_by_local_name doc "body"))));
    t "a DOM error in innerHTML propagates instead of becoming text" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body>x</body></html>|};
        match
          J.run_script b b.B.top_window "document.body.firstChild.innerHTML = '<b/>';"
        with
        | exception J.Js_error m ->
            check Alcotest.bool "HierarchyRequestError" true
              (String.starts_with ~prefix:"HierarchyRequestError" m);
            check Alcotest.string "text kept" "x"
              (Dom.string_value (List.hd (Dom.get_elements_by_local_name (B.document b) "body")))
        | () -> Alcotest.fail "expected the DOM error");
    t "style object maps to style attribute" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"/></body></html>|};
        J.run_script b b.B.top_window
          "document.getElementById('d').style.backgroundColor = 'red';";
        let d = Option.get (Dom.get_element_by_id (B.document b) "d") in
        check (Alcotest.option Alcotest.string) "css" (Some "background-color: red")
          (Dom.attribute_local d "style"));
    t "getElementsByTagName" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><p/><p/><div/></body></html>|};
        check Alcotest.string "2 ps" "2" (eval_str b "document.getElementsByTagName('p').length"));
    t "parentNode / firstChild navigation" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"><p id="p"/></div></body></html>|};
        check Alcotest.string "up" "d"
          (eval_str b "document.getElementById('p').parentNode.id");
        check Alcotest.string "down" "p"
          (eval_str b "document.getElementById('d').firstChild.id"));
    t "removeChild" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"><p/></div></body></html>|};
        J.run_script b b.B.top_window
          "var d = document.getElementById('d'); d.removeChild(d.firstChild);";
        check Alcotest.string "empty" "0" (eval_str b "document.getElementById('d').childNodes.length"));
    t "document.evaluate runs XPath (§2.2)" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><body><div>I love XQuery</div><div>meh</div></body></html>|};
        J.run_script b b.B.top_window
          "var r = document.evaluate(\"//div[contains(., 'love')]\", document, null,\n\
           XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null);";
        check Alcotest.string "snapshotLength" "1" (eval_str b "r.snapshotLength");
        check Alcotest.string "text" "I love XQuery" (eval_str b "r.snapshotItem(0).textContent"));
    t "paper §2.2 heart insertion runs verbatim" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            var allDivs, newElement;
            allDivs = document.evaluate("//div[contains(., 'love')]",
              document, null, XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null);
            if (allDivs.snapshotLength > 0) {
              newElement = document.createElement('img');
              newElement.src = 'http://img.example/heart.gif';
              document.body.insertBefore(newElement, document.body.firstChild);
            }
          </script></head><body><div>all you need is love</div></body></html>|};
        let doc = B.document b in
        match Dom.children (List.hd (Dom.get_elements_by_local_name doc "body")) with
        | first :: _ ->
            check Alcotest.string "img first" "img"
              (Option.get (Dom.name first)).Xmlb.Qname.local
        | [] -> Alcotest.fail "empty body");
    t "addEventListener receives event object" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><button id="b"/></body></html>|};
        J.run_script b b.B.top_window
          "var seen = ''; document.getElementById('b').addEventListener('onclick',\n\
           function(e) { seen = e.type + ':' + e.target.id; }, false);";
        B.click b (Option.get (Dom.get_element_by_id (B.document b) "b"));
        check Alcotest.string "event" "onclick:b" (eval_str b "seen"));
    t "window.status and alert" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window "window.status = 'Welcome'; alert('hey');";
        check Alcotest.string "status" "Welcome" b.B.top_window.Xqib.Windows.status;
        check (Alcotest.list Alcotest.string) "alert" [ "hey" ] (B.alerts b));
    t "setTimeout schedules on the virtual clock" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var fired = false; setTimeout(function() { fired = true; }, 100);";
        check Alcotest.string "not yet" "false" (eval_str b "fired");
        B.run b;
        check Alcotest.string "fired" "true" (eval_str b "fired");
        check (Alcotest.float 0.001) "0.1s" 0.1 (Virtual_clock.now b.B.clock));
    t "a refused tree write throws HierarchyRequestError" (fun () ->
        (* a cyclic appendChild, and writes a text node cannot take *)
        List.iter
          (fun (write, kept) ->
            let b = B.create () in
            Xqib.Page.load b
              {|<html><body><div id="outer"><div id="inner"/></div><p id="t">x</p></body></html>|};
            J.run_script b b.B.top_window
              ("var r = 'none';\n\
                try { " ^ write ^ " }\n\
                catch (e) { r = e.indexOf('HierarchyRequestError') >= 0; }");
            check Alcotest.string write "true" (eval_str b "r");
            check Alcotest.string "tree kept" kept
              (Dom.serialize (List.hd (Dom.get_elements_by_local_name (B.document b) "body"))))
          (List.map
             (fun w -> (w, {|<body><div id="outer"><div id="inner"/></div><p id="t">x</p></body>|}))
             [
               "document.getElementById('inner').appendChild(document.getElementById('outer'));";
               "document.getElementById('t').firstChild.innerHTML = '<b/>';";
               "document.getElementById('t').firstChild.setAttribute('a', 'b');";
               "document.getElementById('t').firstChild.removeAttribute('a');";
               "document.getElementById('t').firstChild.write('<b/>');";
               "document.getElementById('t').firstChild.style.color = 'red';";
             ]));
    t "a reference that is not a child throws NotFoundError" (fun () ->
        (* [a] is asked about [x], a child of [b]: nothing is written *)
        let body = {|<body><div id="a"/><div id="b"><p id="x"/></div></body>|} in
        List.iter
          (fun call ->
            let b = B.create () in
            Xqib.Page.load b ("<html>" ^ body ^ "</html>");
            J.run_script b b.B.top_window
              ("var a = document.getElementById('a'), x = document.getElementById('x'), r = 'none';\n\
                try { " ^ call ^ " } catch (e) { r = e; }");
            check Alcotest.string call
              "NotFoundError: the reference node is not a child of the parent" (eval_str b "r");
            check Alcotest.string "tree kept" body
              (Dom.serialize (List.hd (Dom.get_elements_by_local_name (B.document b) "body"))))
          [
            "a.removeChild(x);";
            "a.insertBefore(document.createElement('n'), x);";
            "a.replaceChild(document.createElement('n'), x);";
          ]);
    t "insertBefore a node before itself leaves the tree as it was" (fun () ->
        let body = {|<body><div id="a"><p id="x"/><p id="y"/></div></body>|} in
        let b = B.create () in
        Xqib.Page.load b ("<html>" ^ body ^ "</html>");
        J.run_script b b.B.top_window
          "var x = document.getElementById('x');\n\
           document.getElementById('a').insertBefore(x, x);";
        check Alcotest.(list string) "no error" [] b.B.script_errors;
        check Alcotest.string "x before y" body
          (Dom.serialize (List.hd (Dom.get_elements_by_local_name (B.document b) "body"))));
    t "an uncaught cyclic appendChild is a script error" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            document.getElementById('inner').appendChild(document.getElementById('outer'));
            </script></head>
            <body><div id="outer"><div id="inner"/></div></body></html>|};
        check Alcotest.bool "recorded" true (b.B.script_errors <> []);
        let outer = Option.get (Dom.get_element_by_id (B.document b) "outer") in
        check Alcotest.bool "outer still in the body" true
          (match Dom.parent outer with
          | Some p -> Dom.name p = Some (Xmlb.Qname.make "body")
          | None -> false));
    t "inline onclick handler in JS" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            function buy(e) { e.target.setAttribute("bought", "yes"); }
          </script></head>
          <body><input type="button" id="i" onclick="buy(event)"/></body></html>|};
        let input = Option.get (Dom.get_element_by_id (B.document b) "i") in
        B.click b input;
        check (Alcotest.option Alcotest.string) "bought" (Some "yes")
          (Dom.attribute_local input "bought"));
  ]

let coexistence_tests =
  [
    t "JS and XQuery share events and the DOM (§6.2)" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head>
            <script type="text/javascript">
              function jsSide(e) { e.target.setAttribute("js", "1"); }
            </script>
            <script type="text/javascript">
              document.getElementById("search").addEventListener("onclick", jsSide, false);
            </script>
            <script type="text/xquery">
              declare updating function local:xqSide($evt, $obj) {
                insert node attribute xq { "1" } into $obj
              };
              on event "onclick" at //button[@id="search"] attach listener local:xqSide
            </script>
            </head><body><button id="search"/></body></html>|};
        let btn = Option.get (Dom.get_element_by_id (B.document b) "search") in
        B.click b btn;
        check (Alcotest.option Alcotest.string) "js saw it" (Some "1")
          (Dom.attribute_local btn "js");
        check (Alcotest.option Alcotest.string) "xquery saw it" (Some "1")
          (Dom.attribute_local btn "xq"));
    t "JS reads what XQuery wrote" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            insert node <made-by-xquery id="m">payload</made-by-xquery> into //body
            </script></head><body/></html>|};
        check Alcotest.string "payload" "payload"
          (eval_str b "document.getElementById('m').textContent"));
    t "JS-first execution order (§4.1)" (fun () ->
        (* JS runs before XQuery even when the XQuery tag comes first *)
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head>
            <script type="text/xquery">
              insert node <order v="xq-saw-{count(//marker)}"/> into //body
            </script>
            <script type="text/javascript">
              document.body.appendChild(document.createElement('marker'));
            </script>
            </head><body/></html>|};
        let doc = B.document b in
        let order = List.hd (Dom.get_elements_by_local_name doc "order") in
        check (Alcotest.option Alcotest.string) "marker existed before xquery"
          (Some "xq-saw-1") (Dom.attribute_local order "v"));
  ]

let control_flow_tests =
  [
    t "throw and catch" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var got = ''; try { throw 'boom'; got = 'no'; } catch (e) { got = 'caught:' + e; }";
        check Alcotest.string "caught" "caught:boom" (eval_str b "got"));
    t "finally always runs" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var log = ''; try { log += 'a'; throw 1; } catch (e) { log += 'b'; } finally { log += 'c'; }
           try { log += 'd'; } finally { log += 'e'; }";
        check Alcotest.string "order" "abcde" (eval_str b "log"));
    t "uncaught throw escapes as Js_error-compatible exception" (fun () ->
        let b = fresh () in
        match J.run_script b b.B.top_window "throw 'up';" with
        | exception _ -> ()
        | () -> Alcotest.fail "expected an exception");
    t "host errors are catchable" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var got = ''; try { nosuchfunction(); } catch (e) { got = 'handled'; }";
        check Alcotest.string "handled" "handled" (eval_str b "got"));
    t "switch selects a case and falls through" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var log = ''; switch (2) { case 1: log += 'a'; case 2: log += 'b'; case 3: log += 'c'; break; default: log += 'd'; }";
        check Alcotest.string "fallthrough bc" "bc" (eval_str b "log"));
    t "switch default" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var log = ''; switch (9) { case 1: log += 'a'; break; default: log += 'dflt'; }";
        check Alcotest.string "default" "dflt" (eval_str b "log"));
    t "switch uses strict equality" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var log = ''; switch ('1') { case 1: log = 'num'; break; default: log = 'str'; }";
        check Alcotest.string "strict" "str" (eval_str b "log"));
    t "do-while runs at least once" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var n = 0; do { n++; } while (false);";
        check Alcotest.string "once" "1" (eval_str b "n"));
    t "do-while with break" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var n = 0; do { n++; if (n >= 3) break; } while (true);";
        check Alcotest.string "three" "3" (eval_str b "n"));
  ]

(* Every entry the browser calls records its uncaught error as one
   plain line and returns: the page, the event and the event loop go
   on. *)
let uncaught_tests =
  [
    t "a throwing listener is recorded and the next listener still runs" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            var hits = 0;
            var btn = document.getElementById('b');
            btn.addEventListener('onclick', function(e) { null.foo(); }, false);
            btn.addEventListener('onclick', function(e) { hits++; }, false);
            </script></head><body><button id="b"/></body></html>|};
        let btn = Option.get (Dom.get_element_by_id (B.document b) "b") in
        B.click b btn;
        B.click b btn;
        check Alcotest.string "second listener ran twice" "2" (eval_str b "hits");
        check (Alcotest.list Alcotest.string) "one line per click"
          [ {|Uncaught cannot read property "foo" of null|};
            {|Uncaught cannot read property "foo" of null|} ]
          b.B.script_errors);
    t "a top-level throw is one plain line" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">throw 'boom';</script>
            <script type="text/javascript">var after = 1;</script></head><body/></html>|};
        check (Alcotest.list Alcotest.string) "recorded" [ "Uncaught boom" ] b.B.script_errors;
        check Alcotest.string "the next script ran" "1" (eval_str b "after"));
    t "a failing document.evaluate throws, and the page keeps loading" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            var caught = '', refused = '';
            try { document.evaluate('//[', document); } catch (e) { caught = e; }
            try { document.evaluate('set style "color" of (//text())[1] to "red"', document); }
            catch (e) { refused = e; }
            document.evaluate('1 div 0', document);
            </script>
            <script type="text/xquery">insert node <p/> into //body</script>
            </head><body/></html>|};
        check Alcotest.string "a catchable SyntaxError" "SyntaxError: [XPST0003]"
          (String.sub (eval_str b "caught") 0 23);
        check Alcotest.string "a refused update"
          "XPathException: [XPTY0004] a text node cannot have attributes" (eval_str b "refused");
        check (Alcotest.list Alcotest.string) "the uncaught one is one line"
          [ "Uncaught XPathException: [FOAR0001] division by zero" ]
          b.B.script_errors;
        check Alcotest.int "the XQuery script ran" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "p")));
    t "string builtins clamp their arguments, as in JavaScript" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            var r = 'abc'.substring(10) + '|' + 'abc'.substring(2, -1) + '|' + 'abc'.charAt()
              + '|' + 'a1'.replace('1', '\\1') + '|' + 'a,b'.split().length;
            </script>
            <script type="text/javascript">var after = 1;</script></head><body/></html>|};
        check Alcotest.string "values" {||ab|a|a\1|1|} (eval_str b "r");
        check (Alcotest.list Alcotest.string) "no error" [] b.B.script_errors;
        check Alcotest.string "the next script ran" "1" (eval_str b "after"));
    t "a throw in finally replaces the pending error" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            var ran = 0;
            try { throw 'first'; } finally { ran = 1; throw 'second'; }
            </script>
            <script type="text/javascript">var after = 1;</script></head><body/></html>|};
        check (Alcotest.list Alcotest.string) "recorded" [ "Uncaught second" ]
          b.B.script_errors;
        check Alcotest.string "finally ran" "1" (eval_str b "ran");
        check Alcotest.string "the next script ran" "1" (eval_str b "after"));
    t "navigating to a page that does not parse is a catchable error" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://localhost/broken" "<html><body>";
        Xqib.Page.load b
          {|<html><head><script type="text/javascript">
            var body = document.body;
            try { window.location = 'http://localhost/broken'; }
            catch (e) { body.setAttribute('caught', e); }
            </script></head><body/></html>|};
        let body = List.hd (Dom.get_elements_by_local_name (B.document b) "body") in
        check Alcotest.bool "caught" true
          (String.starts_with ~prefix:"cannot load http://localhost/broken: "
             (Option.value ~default:"" (Dom.attribute_local body "caught")));
        check (Alcotest.list Alcotest.string) "no error" [] b.B.script_errors);
    t "a throwing window.setTimeout callback leaves the event loop running" (fun () ->
        let b = fresh () in
        J.run_script b b.B.top_window
          "var done = 0; window.setTimeout(function() { null.x(); }, 10);\n\
           setTimeout(function() { done = 1; }, 20);";
        B.run b;
        check Alcotest.string "the later timer fired" "1" (eval_str b "done");
        check (Alcotest.list Alcotest.string) "recorded"
          [ {|Uncaught cannot read property "x" of null|} ] b.B.script_errors);
  ]

let suite =
  language_tests @ statement_tests @ dom_tests @ coexistence_tests
  @ control_flow_tests @ uncaught_tests
