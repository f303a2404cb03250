(* Remaining coverage: style utilities, the HOF fallback API (§5.1),
   serialization functions, parser diagnostics, JSP page chaining, and
   assorted corner cases. *)

open Xquery
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let () = Minijs.Js_interp.install ()

let run_xq b src = Xqib.Page.run_xquery b b.B.top_window src
let run_str b src = Xdm_item.to_display_string (run_xq b src)
let eval_str src = Xdm_item.to_display_string (Engine.eval_string src)

let style_tests =
  [
    t "parse a style string" (fun () ->
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "props"
          [ ("color", "red"); ("margin", "2px") ]
          (Style_util.parse "color: red; margin: 2px"));
    t "parse tolerates noise" (fun () ->
        check Alcotest.int "skips empties" 1
          (List.length (Style_util.parse ";; color: red ;")));
    t "get is case-insensitive on the property" (fun () ->
        check (Alcotest.option Alcotest.string) "found" (Some "red")
          (Style_util.get "Color: red" "color"));
    t "set replaces preserving order" (fun () ->
        check Alcotest.string "replaced" "a: 1; b: 9"
          (Style_util.set "a: 1; b: 2" "b" "9"));
    t "set appends when missing" (fun () ->
        check Alcotest.string "appended" "a: 1; c: 3" (Style_util.set "a: 1" "c" "3"));
    t "node helpers work on elements without style" (fun () ->
        let el = Dom.create_element (Xmlb.Qname.make "d") in
        check (Alcotest.option Alcotest.string) "none" None
          (Style_util.get_on_node el "color");
        Style_util.set_on_node el "color" "blue";
        check (Alcotest.option Alcotest.string) "set" (Some "blue")
          (Style_util.get_on_node el "color"));
  ]

let hof_tests =
  [
    t "browser:addEventListener registers like the syntax (§5.1)" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:l($evt, $obj) {
              insert node <hit/> into //body
            };
            browser:addEventListener(//button, "onclick", "local:l")
            </script></head><body><button id="b"/></body></html>|};
        B.click b (Option.get (Dom.get_element_by_id (B.document b) "b"));
        check Alcotest.int "fired" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "hit")));
    t "browser:removeEventListener detaches" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:l($evt, $obj) {
              insert node <hit/> into //body
            };
            browser:addEventListener(//button, "onclick", "local:l")
            </script></head><body><button id="b"/></body></html>|};
        ignore (run_xq b {|browser:removeEventListener(//button, "onclick", "local:l")|});
        B.click b (Option.get (Dom.get_element_by_id (B.document b) "b"));
        check Alcotest.int "no hits" 0
          (List.length (Dom.get_elements_by_local_name (B.document b) "hit")));
    t "browser:dispatchEvent triggers like the syntax" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:l($evt, $obj) {
              insert node <hit/> into //body
            };
            on event "ping" at //button attach listener local:l
            </script></head><body><button id="b"/></body></html>|};
        ignore (run_xq b {|browser:dispatchEvent(//button, "ping")|});
        check Alcotest.int "fired" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "hit")));
    t "browser:setStyle/getStyle mirror the grammar" (fun () ->
        let b = B.create () in
        Xqib.Page.load b {|<html><body><div id="d"/></body></html>|};
        ignore (run_xq b {|browser:setStyle(//div, "color", "green")|});
        check Alcotest.string "read back" "green"
          (run_str b {|browser:getStyle(//div, "color")|}));
  ]

let serialize_tests =
  [
    t "fn:serialize of a node" (fun () ->
        check Alcotest.string "xml" "<a x=\"1\"><b/></a>"
          (eval_str "serialize(<a x='1'><b/></a>)"));
    t "fn:serialize of atomics" (fun () ->
        check Alcotest.string "concat" "12" (eval_str "serialize((1, 2))"));
    t "fn:parse-xml round trips" (fun () ->
        check Alcotest.string "count" "2"
          (eval_str "count(parse-xml('<r><a/><b/></r>')/r/*)"));
    t "fn:parse-xml rejects garbage" (fun () ->
        match Engine.eval_string "parse-xml('<oops')" with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "FODC0006" e.Xq_error.code
        | _ -> Alcotest.fail "expected error");
    t "serialize/parse-xml are inverses on constructed trees" (fun () ->
        check Alcotest.string "same" "true"
          (eval_str
             "let $t := <doc><x y='2'>text</x></doc> \
              return deep-equal($t, parse-xml(serialize($t))/doc)"));
  ]

(* one small function declaration, 64 bytes *)
let declaration i =
  Printf.sprintf "declare function local:f%05d($value) { $value + %05d + 100 };\n" i i

let diagnostics_tests =
  [
    t "syntax errors carry line and column" (fun () ->
        match Engine.eval_string "1 +\n  **" with
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "XPST0003" e.Xq_error.code;
            check Alcotest.bool "mentions line 2" true
              (let re = Str.regexp ".*line 2.*" in
               Str.string_match re e.Xq_error.message 0)
        | _ -> Alcotest.fail "expected syntax error");
    t "unknown function error names it with arity" (fun () ->
        match Engine.eval_string "fn:frobnicate(1, 2)" with
        | exception Xq_error.Error e ->
            check Alcotest.bool "mentions name and arity" true
              (let re = Str.regexp ".*frobnicate#2.*" in
               Str.string_match re e.Xq_error.message 0)
        | _ -> Alcotest.fail "expected error");
    t "undefined variable error names it" (fun () ->
        match Engine.eval_string "$missing" with
        | exception Xq_error.Error e ->
            check Alcotest.bool "names it" true
              (let re = Str.regexp ".*\\$missing.*" in
               Str.string_match re e.Xq_error.message 0)
        | _ -> Alcotest.fail "expected error");
    t "lexer errors name the line and column of their token" (fun () ->
        let decls = String.concat "" (List.init 300 (fun i -> declaration i)) in
        List.iter
          (fun (tail, code, message) ->
            match Engine.compile (decls ^ "1 +\n  " ^ tail) with
            | exception Xq_error.Error e ->
                check Alcotest.string "code" code e.Xq_error.code;
                check Alcotest.string "message" message e.Xq_error.message
            | _ -> Alcotest.fail "expected an error")
          [
            ("!", "XPST0003", "line 302, col 3: unexpected character '!'");
            ("\"ab\ncd", "XPST0003", "line 302, col 3: unterminated string literal");
            ("\"&#0;\"", "XQST0090", "line 302, col 3: invalid character reference &#0;");
            ("99999999999999999999", "FOAR0002",
              Printf.sprintf
                "line 302, col 3: the integer literal 99999999999999999999 is larger than %d"
                max_int );
          ]);
    t "compile time per byte of a 64 KB script is within 1.5x of a 1 KB script" (fun () ->
        (* Samples of 64 KB each: 64 compiles of the 1 KB script, or one
           of the 64 KB script. Each starts on a collected heap and keeps
           every compiled script until it ends, so both sizes leave as
           much live data to the collector and only the compiler's own
           cost per byte differs. Samples alternate between the sizes;
           the minimum of each is taken. *)
        let script k = String.concat "" (List.init k declaration) ^ "1" in
        let small = script 16 and large = script 1_024 in
        let sample src reps =
          Gc.full_major ();
          let t0 = Sys.time () in
          ignore (Sys.opaque_identity (List.init reps (fun _ -> Engine.compile src)));
          (Sys.time () -. t0) /. float_of_int (reps * String.length src)
        in
        ignore (sample small 64, sample large 1);
        let best_small = ref infinity and best_large = ref infinity in
        for _ = 1 to 40 do
          best_small := Float.min !best_small (sample small 64);
          best_large := Float.min !best_large (sample large 1)
        done;
        if !best_large > 1.5 *. !best_small then
          Alcotest.failf "compile seconds per byte: %.3g at 64 KB, %.3g at 1 KB (bound 1.5x)"
            !best_large !best_small);
  ]

let jsp_chaining_tests =
  [
    t "several JSP pages share one host" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let j = Appserver.Jsp_sim.create () in
        Appserver.Jsp_sim.register_page j http ~host:"site" ~path:"/a" "page A";
        Appserver.Jsp_sim.register_page j http ~host:"site" ~path:"/b" "page B";
        check Alcotest.string "a" "page A" (Http_sim.fetch http "http://site/a").Http_sim.body;
        check Alcotest.string "b" "page B" (Http_sim.fetch http "http://site/b").Http_sim.body;
        check Alcotest.int "missing still 404" 404
          (Http_sim.fetch http "http://site/zzz").Http_sim.status);
  ]

let corner_tests =
  [
    t "deeply nested constructor evaluates" (fun () ->
        let depth = 200 in
        let src =
          String.concat ""
            (List.init depth (fun _ -> "<d>"))
          ^ "1"
          ^ String.concat "" (List.init depth (fun _ -> "</d>"))
        in
        check Alcotest.string "survives" "1"
          (eval_str (Printf.sprintf "string(%s)" src)));
    t "large sequence operations" (fun () ->
        check Alcotest.string "sum" "50005000" (eval_str "sum(1 to 10000)"));
    t "empty page body loads" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html/>";
        check Alcotest.string "queryable" "1" (run_str b "count(/html)"));
    t "whitespace-only script is a no-op" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">   </script></head><body/></html>|};
        check Alcotest.int "no errors" 0 (List.length b.B.script_errors));
    t "xquery comments inside page scripts" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            (: setup :) browser:alert("done") (: teardown :)
            </script></head><body/></html>|};
        check (Alcotest.list Alcotest.string) "ran" [ "done" ] (B.alerts b));
    t "attribute value templates with quotes" (fun () ->
        check Alcotest.string "av" "<a t=\"it's 2\"/>"
          (eval_str "<a t=\"it's {1 + 1}\"/>"));
    t "catalog lists the function library" (fun () ->
        check Alcotest.bool "over 100 entries" true
          (List.length (Functions.catalog ()) > 100));
  ]

let suite =
  style_tests @ hof_tests @ serialize_tests @ diagnostics_tests
  @ jsp_chaining_tests @ corner_tests
