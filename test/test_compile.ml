(* The closure compiler, production's one evaluator: equivalence with
   the reference evaluator (unit and QCheck, values and error codes,
   updates, transforms, scripting, typeswitch, joins and order-by
   included; constructors linking or copying their content), hot-shape
   edge cases (integer arithmetic, range-fused
   FLWOR, the predicate-free path step), dispatch of user-function
   calls through the context's compiled-function table, and the
   browser wiring (page scripts and per-event listeners run compiled
   code; browser:stats() reports the compile counters). *)

open Xquery
module A = Xdm_atomic
module I = Xdm_item
module Q = QCheck
module Ablation = Xmlb.Ablation

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* attributes and element text so paths, predicates, and casts all
   have something to chew on *)
let doc =
  "<r><a><x k='1'>1</x><x k='2'>2</x></a><a><x k='3'>3</x></a><b>7</b></r>"

let outcome ~compiled src =
  Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
      match
        I.to_display_string
          (Engine.eval_string ~context_item:(I.Node (Dom.of_string doc)) src)
      with
      | v -> Ok v
      | exception Xq_error.Error e -> Error e.Xq_error.code)

(* the reference evaluator is the oracle production must agree with *)
let all_configs_agree src = outcome ~compiled:true src = outcome ~compiled:false src

(* assert agreement, and optionally pin the value *)
let matrix ?expected name src =
  t name (fun () ->
      check
        (Alcotest.result Alcotest.string Alcotest.string)
        ("production agrees with the reference: " ^ src)
        (outcome ~compiled:false src) (outcome ~compiled:true src);
      match expected with
      | Some e ->
          check
            (Alcotest.result Alcotest.string Alcotest.string)
            src (Ok e) (outcome ~compiled:true src)
      | None -> ())

(* ---------- targeted equivalence: hot shapes and fallbacks ---------- *)

let unit_equivalence_tests =
  [
    t "count of a range reads its bounds, not its items" (fun () ->
        let compiled = Engine.compile "count(1 to 1000000)" in
        ignore (Engine.run compiled);
        let before = Gc.minor_words () in
        let v = Engine.run compiled in
        let words = Gc.minor_words () -. before in
        check Alcotest.string "value" "1000000" (I.to_display_string v);
        check Alcotest.bool (Printf.sprintf "%.0f minor words, under 1 000" words) true
          (words < 1000.));
    (* integer fast paths, including the by-zero generic fallbacks *)
    matrix ~expected:"7" "integer add" "3 + 4";
    matrix ~expected:"-6" "integer multiply" "2 * -3";
    matrix ~expected:"2" "integer mod" "42 mod 5";
    matrix ~expected:"-2" "negative mod keeps sign" "-42 mod 5";
    matrix ~expected:"8" "integer idiv" "17 idiv 2";
    matrix ~expected:"-8" "idiv truncates toward zero" "-17 idiv 2";
    matrix "idiv by zero errors identically" "1 idiv 0";
    matrix "mod by zero errors identically" "1 mod 0";
    matrix ~expected:"3.5" "div leaves the fast path" "7 div 2";
    matrix ~expected:"true" "integer value comparison" "3 lt 4";
    matrix ~expected:"false" "integer eq" "3 eq 4";
    matrix "mixed value comparison errors identically" "'a' eq 1";
    matrix ~expected:"" "empty operand yields empty" "() + 1";
    matrix "arith on a two-item sequence errors" "(1, 2) + 3";
    matrix "bad cast errors identically" "xs:integer('abc')";
    matrix ~expected:"7" "identity integer cast" "xs:integer(7)";
    matrix ~expected:"3" "cast from attribute text" "xs:integer((//x)[3]/@k)";
    (* range-fused FLWOR *)
    matrix ~expected:"30" "sum over a range"
      "sum(for $i in 1 to 5 return $i * 2)";
    matrix ~expected:"" "empty range" "for $i in 5 to 3 return $i";
    matrix ~expected:"15 26 37" "positional variable over a range"
      "string-join(for $i at $p in 5 to 7 return string($p * 10 + $i), ' ')";
    matrix ~expected:"6" "range over singleton bounds" "sum(1 to 3)";
    (* XQuery 3.1 §3.5: each operand converts as an xs:integer? argument *)
    t "range operands convert as xs:integer? arguments" (fun () ->
        List.iter
          (fun (src, want) ->
            List.iter
              (fun compiled ->
                check
                  (Alcotest.result Alcotest.string Alcotest.string)
                  (Printf.sprintf "%s (compiled: %b)" src compiled)
                  want (outcome ~compiled src))
              [ true; false ])
          [
            ("1.5 to 3", Error "XPTY0004");
            ("count(1.5 to 3)", Error "XPTY0004");
            ("'2' to 3", Error "XPTY0004");
            ("count('2' to 3)", Error "XPTY0004");
            ("2.0e0 to 3", Error "XPTY0004");
            ("count(1 to 3.0e0)", Error "XPTY0004");
            ("for $i in 1.5 to 3 return $i", Error "XPTY0004");
            ("xs:untypedAtomic('2') to 3", Ok "2 3");
            ("count(xs:untypedAtomic('2') to 3)", Ok "2");
            ("count((//x)[1] to 3)", Ok "3");
            ("() to 3", Ok "");
            ("count(() to 3)", Ok "0");
          ]);
    (* predicate-free path hot shape: forward axes, reverse fallback *)
    matrix ~expected:"1 2 3" "attribute step over iteration"
      "string-join(for $v in //x return string($v/@k), ' ')";
    matrix ~expected:"3" "descendant step from the root" "count(//x)";
    matrix ~expected:"1" "child chain" "count(/r/a/x[position() le 1]/../x[2])";
    matrix ~expected:"2" "reverse axis still merges doc order"
      "count(//x[@k='2']/ancestor::*)";
    matrix ~expected:"7" "following axis" "string((//x)[3]/following::b)";
    (* order-by, typeswitch, transform, quantifier *)
    matrix ~expected:"3 2 1" "order-by FLWOR compiles"
      "string-join(for $v in //x order by xs:integer($v/@k) descending \
       return string($v), ' ')";
    matrix ~expected:"int" "typeswitch compiles"
      "typeswitch (3) case xs:integer return 'int' default return 'other'";
    matrix ~expected:"<a/>" "transform compiles"
      "copy $c := <a><b/></a> modify delete node $c/b return $c";
    matrix ~expected:"true" "quantifier compiles"
      "some $v in //x satisfies $v = '2'";
    (* constructors *)
    matrix ~expected:"<e k=\"3\">12</e>" "direct constructor with enclosed"
      "<e k='{count(//x)}'>{3 * 4}</e>";
    matrix ~expected:"<f>1 2 3</f>" "computed element over a path"
      "element f { data(//x/@k) }";
    (* variable scoping and shadowing through frame slots *)
    matrix ~expected:"9" "let shadows let"
      "let $v := 2 let $v := $v + 7 return $v";
    matrix ~expected:"12 22 32" "inner for shadows outer"
      "string-join(for $i in 1 to 3 return string(sum(for $i in $i * 10 to \
       $i * 10 + 2 return 0) + $i * 10 + 2), ' ')";
    matrix ~expected:"6" "where clause filters"
      "sum(for $i in 1 to 3 where $i ge 1 return $i)";
    matrix ~expected:"5" "free variable resolves through the context"
      "let $v := 5 return string-join(for $w in 1 to 1 return string($v), '')";
  ]

(* ---------- compiled user functions ---------- *)

let function_tests =
  [
    t "declared functions compile and agree" (fun () ->
        let src =
          "declare function local:sq($n) { $n * $n }; \
           sum(for $i in 1 to 4 return local:sq($i))"
        in
        let run compiled =
          Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
              I.to_display_string (Engine.eval_string src))
        in
        check Alcotest.string "value" "30" (run true);
        check Alcotest.string "modes agree" (run false) (run true));
    t "compile counters record the function" (fun () ->
        let before = List.assoc "functions" (Compile.stats ()) in
        ignore
          (Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
               Engine.compile ~static:(Engine.default_static ())
                 "declare function local:id($x) { $x }; local:id(1)"));
        let after = List.assoc "functions" (Compile.stats ()) in
        check Alcotest.bool "functions counter advanced" true (after > before));
    t "calls dispatch through the context's compiled-fn table" (fun () ->
        Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
            let c =
              Engine.compile ~static:(Engine.default_static ())
                "declare function local:f($x) { $x + 1 }; local:f(1)"
            in
            let ctx = Engine.context_for c in
            check Alcotest.bool "table populated" true
              (Hashtbl.length ctx.Dynamic_context.compiled_fns > 0);
            (* prove call_function consults the table: plant a marker *)
            let key =
              Dynamic_context.fn_key
                (Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "f")
                ~arity:1
            in
            Hashtbl.replace ctx.Dynamic_context.compiled_fns key
              (fun _ _ -> [ I.Atomic (A.String "marker") ]);
            check Alcotest.string "marker impl invoked" "marker"
              (I.to_display_string
                 (Eval.call_function ctx
                    (Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "f")
                    [ [ I.Atomic (A.Integer 1) ] ]))));
    t "interpreted mode leaves the table empty" (fun () ->
        Ablation.with_ { Ablation.current with compiled_eval = false } (fun () ->
            let c =
              Engine.compile ~static:(Engine.default_static ())
                "declare function local:f($x) { $x + 1 }; local:f(1)"
            in
            let ctx = Engine.context_for c in
            check Alcotest.int "no compiled fns" 0
              (Hashtbl.length ctx.Dynamic_context.compiled_fns)));
    t "recursion depth limit errors identically" (fun () ->
        let src =
          "declare function local:f($n) { if ($n = 0) then 0 else \
           local:f($n - 1) }; local:f(100000)"
        in
        let run compiled =
          Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
              match I.to_display_string (Engine.eval_string src) with
              | v -> Ok v
              | exception Xq_error.Error e -> Error e.Xq_error.code)
        in
        check Alcotest.bool "both exceed the depth limit" true
          (run true = run false && run true = Error "XQDY0054"));
    t "updating function bodies compile" (fun () ->
        (* an updating listener compiles like any other function, and
           the whole pipeline runs it *)
        let src =
          {|<html><head><script type="text/xquery">
            declare updating function local:l($evt, $obj) {
              insert node <hit/> into //div[@id="log"]
            };
            on event "onclick" at //button attach listener local:l
            </script></head>
            <body><button id="b">go</button><div id="log"/></body></html>|}
        in
        Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
            let b = Xqib.Browser.create () in
            Xqib.Page.load b src;
            let doc = Xqib.Browser.document b in
            let ctx = Option.get (Xqib.Page.xquery_context b.Xqib.Browser.top_window) in
            check Alcotest.bool "listener compiled" true
              (Hashtbl.mem ctx.Dynamic_context.compiled_fns
                 (Dynamic_context.fn_key (Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "l") ~arity:2));
            Xqib.Browser.click b
              (Option.get (Dom.get_element_by_id doc "b"));
            check Alcotest.int "listener fired" 1
              (List.length (Dom.get_elements_by_local_name doc "hit"))));
    t "perfbench's page-load and click scripts compile whole" (fun () ->
        (* every node of the scripts the end-to-end workloads run is
           closure code, and every function a page context can call —
           earlier scripts' and imported modules' too — has a compiled
           body *)
        let check_page ?(setup = ignore) html =
          Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
              let stat k = List.assoc k (Compile.stats ()) in
              let nodes = stat "nodes" in
              let b = Xqib.Browser.create () in
              setup b;
              Xqib.Page.load b html;
              check (Alcotest.list Alcotest.string) "no script errors" [] b.Xqib.Browser.script_errors;
              check Alcotest.bool "closure nodes emitted" true (stat "nodes" > nodes);
              check Alcotest.int "no opaque nodes" 0 (stat "opaque-nodes");
              let ctx = Option.get (Xqib.Page.xquery_context b.Xqib.Browser.top_window) in
              let declared = Static_context.declared_functions ctx.Dynamic_context.static in
              check Alcotest.bool "functions declared" true (declared <> []);
              List.iter
                (fun (f : Ast.function_decl) ->
                  check Alcotest.bool
                    (Xmlb.Qname.to_string f.Ast.fname ^ " compiled")
                    true
                    (Hashtbl.mem ctx.Dynamic_context.compiled_fns
                       (Dynamic_context.fn_key f.Ast.fname ~arity:(List.length f.Ast.params))))
                declared)
        in
        check_page (Gen.pages ~seed:11 ~n:1).(0).Gen.html;
        check_page (Gen.click_input ~seed:11 ~ops:10).Gen.html;
        let script src = {|<script type="text/xquery">|} ^ src ^ "</script>" in
        let page scripts = "<html><head>" ^ String.concat "" scripts ^ "</head><body/></html>" in
        check_page
          (page
             [
               script "declare function local:a($x) { $x + 1 }; declare variable $g := local:a(1); ()";
               script "declare function local:b() { local:a($g) }; local:b()";
               script "declare function local:c() { local:b() * 2 }; local:c()";
             ]);
        check_page
          ~setup:(fun b ->
            Http_sim.register_doc b.Xqib.Browser.http ~uri:"http://libs.example/lib.xq"
              ~content_type:"application/xquery"
              {|module namespace lib = "urn:lib"; declare function lib:f($x) { $x * 2 };
                declare function lib:g() { lib:f(21) };|})
          (page
             [
               script
                 {|import module namespace m = "urn:lib" at "http://libs.example/lib.xq";
                   declare function local:h() { m:g() }; local:h()|};
             ]));
  ]

(* ---------- browser wiring and stats ---------- *)

let browser_tests =
  let page =
    {|<html><head><script type="text/xquery">
      declare function local:double($n) { $n * 2 };
      declare function local:on($evt, $obj) {
        browser:alert(string(local:double(21)))
      };
      on event "onclick" at //button attach listener local:on
      </script></head><body><button id="b">go</button></body></html>|}
  in
  let click_alerts compiled =
    Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b page;
        let doc = Xqib.Browser.document b in
        Xqib.Browser.click b (Option.get (Dom.get_element_by_id doc "b"));
        Xqib.Browser.alerts b)
  in
  [
    t "per-event listener runs compiled code" (fun () ->
        check
          (Alcotest.list Alcotest.string)
          "alert from compiled listener" [ "42" ] (click_alerts true);
        check
          (Alcotest.list Alcotest.string)
          "modes agree" (click_alerts false) (click_alerts true));
    t "browser:stats reports the compiled-eval switch" (fun () ->
        let flag compiled =
          Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
              let b = Xqib.Browser.create () in
              Xqib.Page.load b "<html><body/></html>";
              I.to_display_string
                (Xqib.Page.run_xquery b b.Xqib.Browser.top_window
                   "string(browser:stats()/@compiled-eval-enabled)"))
        in
        check Alcotest.string "on" "true" (flag true);
        check Alcotest.string "off" "false" (flag false));
    t "browser:stats exposes the compile counters" (fun () ->
        Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
            let b = Xqib.Browser.create () in
            Xqib.Page.load b page;
            let v =
              I.to_display_string
                (Xqib.Page.run_xquery b b.Xqib.Browser.top_window
                   "string(xs:integer(browser:stats()//counter[@name = \
                    'xquery.compile.fns']/@value) ge 1)")
            in
            check Alcotest.string "functions counter visible" "true" v));
  ]

(* ---------- QCheck: the ablation matrix always agrees ---------- *)

let src_gen =
  Q.Gen.(
    let closed_int =
      oneofl
        [
          "3"; "-2"; "0"; "count(//x)"; "count(//y)"; "xs:integer('7')";
          "string-length('abc')"; "sum(1 to 5)"; "(1 to 10)[3]";
          "xs:integer(//b)";
        ]
    in
    let open_int =
      oneofl
        [
          "$i"; "$i * 2 + 1"; "$i mod 3"; "$i idiv 2"; "10 - $i"; "$i * $i";
          "count(//x) + $i";
        ]
    in
    (* paths over several nodes out of document order, with
       duplicates, on a reverse axis from one node or several, or over
       an atomic (XPTY0004) *)
    let path =
      oneofl
        [
          "//x"; "//a/x"; "//x/@k"; "//b"; "(//x, //b)"; "//y"; "(//b, //a)/x";
          "(//x, //x)/@k"; "//x/.."; "(//x/.., //a)/@k"; "(//x/.., //a)/x"; "(1, //x)/@k";
          "(//x, 1)/@k"; "(//x)[2]/ancestor::*"; "//b/preceding-sibling::*";
        ]
    in
    let pred =
      oneofl
        [
          "1"; "2"; "position() = 2"; "position() le 2"; "last()";
          ". = '2'"; "@k = '2'"; "xs:integer(@k) ge 2"; "true()";
        ]
    in
    let cmp = oneofl [ "eq"; "ne"; "lt"; "le"; "gt"; "ge" ] in
    let gcmp = oneofl [ "="; "!="; "<"; "<="; ">"; ">=" ] in
    oneof
      [
        (* arithmetic and comparisons over closed integers *)
        map3
          (fun a b c -> Printf.sprintf "(%s) * (%s) mod ((%s) * 2 + 1)" a b c)
          closed_int closed_int closed_int;
        map3 (fun a c b -> Printf.sprintf "%s %s %s" a c b) closed_int cmp
          closed_int;
        map3 (fun a c b -> Printf.sprintf "%s %s %s" a c b) closed_int gcmp
          closed_int;
        (* FLWOR over ranges, with and without positional vars *)
        map3
          (fun lo hi body ->
            Printf.sprintf "sum(for $i in %d to %d return %s)" lo hi body)
          (int_range (-2) 3) (int_range 2 8) open_int;
        map2
          (fun hi body ->
            Printf.sprintf
              "string-join(for $i at $p in 1 to %d return string((%s) + $p), \
               ' ')"
              hi body)
          (int_range 0 5) open_int;
        (* FLWOR over paths with where *)
        map2
          (fun p v ->
            Printf.sprintf "for $v in %s where $v = '%s' return $v" p v)
          path
          (oneofl [ "1"; "2"; "7"; "z" ]);
        map2
          (fun p body ->
            Printf.sprintf
              "string-join(for $v in %s return string(%s), '.')" p body)
          path
          (oneofl
             [ "$v"; "$v/@k"; "string-length(string($v))"; "count($v/../x)" ]);
        (* paths and predicates *)
        map2 (fun p f -> Printf.sprintf "count(%s[%s])" p f) path pred;
        map2 (fun p f -> Printf.sprintf "(%s)[%s]" p f) path pred;
        map2 (fun p f -> Printf.sprintf "string-join(%s[%s], '.')" p f) path
          pred;
        (* conditionals, lets, quantifiers, order-by *)
        map3
          (fun c a b -> Printf.sprintf "if (%s) then %s else %s" c a b)
          (oneofl [ "//x"; "//y"; "1 = 2"; "true()" ])
          closed_int closed_int;
        map2
          (fun a b -> Printf.sprintf "let $v := %s return ($v + 1) * (%s)" a b)
          closed_int closed_int;
        map2
          (fun p v ->
            Printf.sprintf "some $v in %s satisfies $v = '%s'" p v)
          path
          (oneofl [ "1"; "3"; "z" ]);
        map
          (fun d ->
            Printf.sprintf
              "string-join(for $v in //x order by xs:integer($v/@k) %s \
               return string($v), ' ')"
              d)
          (oneofl [ "ascending"; "descending" ]);
        (* constructors *)
        map2
          (fun a b -> Printf.sprintf "<e k='{%s}'>{%s}</e>" a b)
          closed_int closed_int;
        map (Printf.sprintf "element f { data(//x/@k), %s }") closed_int;
        (* content across parts: attribute nodes, atomics, text and
           elements; joined attribute values; an attribute after
           content (XQTY0024) *)
        oneofl
          [
            "<e>{//x/@k}{1, 2}t{//b}</e>"; "<e>{(//x)[2]/@k}{1, 2}t{//b}</e>";
            "<e a=\"{1}{'b'}\">{()}</e>";
            "<e a=\"x{1, 2}y\" b=\"{//x/@k}\">{(//b, 'u')}{()}v</e>"; "<e>t{//x/@k}</e>";
            "<e>{1}{//x/@k}</e>"; "<e>{//b}{//x/@k}</e>"; "<e>{(//x)[1]/@k}{()}{'s'}</e>";
          ];
        (* a range's count from its bounds, empty ones included *)
        map2 (Printf.sprintf "count(%d to %d)") (int_range (-3) 5) (int_range (-3) 5);
        map (Printf.sprintf "count(%s)")
          (oneofl
             [
               "() to 3"; "1 to ()"; "'a' to 3"; "xs:integer(//b) to 10"; "count(//x) to 2";
               "(1, 2) to 3";
             ]);
        (* casts that may fail: error codes must agree too *)
        map (Printf.sprintf "xs:integer(string(%s))")
          (oneofl [ "//b"; "(//x)[1]"; "'nope'"; "7" ]);
      ])

(* updates at the top level and in transforms, sequential functions
   with declare, set, while, break, continue and exit with, typeswitch,
   hash joins and order-by with two keys and empty greatest/least *)
let update_gen =
  Q.Gen.(
    let target = oneofl [ "(//a)[1]"; "(//x)[2]"; "//b"; "(//y)[1]"; "//x" ] in
    let copy_source = oneofl [ "(//a)[1]"; "//b"; "<e k='1'><f/>t</e>"; "(//x)[3]"; "//x" ] in
    let update t =
      oneofl
        [
          Printf.sprintf "insert node <n>{count(//x)}</n> into %s" t;
          Printf.sprintf "insert node <n/> as first into %s" t;
          Printf.sprintf "insert node <n/> before %s" t;
          Printf.sprintf "insert node attribute z {'1'} into %s" t;
          Printf.sprintf "delete node %s" t;
          Printf.sprintf "delete nodes %s/*" t;
          Printf.sprintf "replace value of node %s with 'v'" t;
          Printf.sprintf "replace node %s with <r/>" t;
          Printf.sprintf "rename node %s as 'renamed'" t;
        ]
    in
    let transform =
      copy_source >>= fun src ->
      oneofl [ "$c"; "($c/*)[1]"; "$c/@k"; "$c//x" ] >>= update >>= fun upd ->
      oneofl [ "$c"; "count($c//*)"; "string($c)"; "($c, count(//x))" ] >|= fun ret ->
      Printf.sprintf "copy $c := %s modify (%s) return %s" src upd ret
    in
    oneof [ target >>= update; transform ])

let sequential_gen =
  Q.Gen.(
    let stmt =
      oneof
        [
          return "set $acc := $acc + $i";
          return "set $acc := $acc * 2";
          return "set $g := $g + $i";
          map (Printf.sprintf "if ($i ge %d) then break else ()") (int_range 1 4);
          return "if ($i mod 2 = 0) then continue else ()";
          map (Printf.sprintf "if ($i = %d) then { exit with ($acc, 'early') } else ()") (int_range 1 4);
          return "declare variable $t := $i * 3; set $acc := $acc + $t";
          return "insert node <hit n='{$i}'/> into (//a)[1]";
          return "set $acc := $acc + count(//hit)";
        ]
    in
    let init = oneofl [ "0"; "1"; "'s'"; "count(//x)" ] in
    let tail = oneofl [ "$acc"; "exit with ($acc, $g)"; "($acc, count(//hit))"; "$g" ] in
    map3
      (fun (init, n) (s1, s2) tail ->
        Printf.sprintf
          "declare variable $g := 0; \
           declare sequential function local:f($n) { \
             declare variable $i := 0; declare variable $acc := %s; \
             while ($i lt $n) { set $i := $i + 1; %s; %s }; %s }; \
           (local:f(%d), $g)"
          init s1 s2 tail n)
      (pair init (int_range 0 5))
      (pair stmt stmt) tail)

let typeswitch_gen =
  Q.Gen.(
    let operand = oneofl [ "3"; "'s'"; "(//x)[1]"; "(1, 2)"; "()"; "1.5"; "//a"; "<e/>"; "//y" ] in
    let case =
      oneofl
        [
          "case $v as xs:integer return $v * 2";
          "case xs:string return 'str'";
          "case $e as element() return name($e)";
          "case $e as element()+ return count($e)";
          "case empty-sequence() return 'none'";
          "case xs:decimal return 'dec'";
        ]
    in
    map2
      (fun op cases ->
        Printf.sprintf "typeswitch (%s) %s default $d return count($d)" op
          (String.concat " " cases))
      operand (list_size (int_range 1 3) case))

let join_gen =
  Q.Gen.(
    let side = oneofl [ "//x"; "//a/x"; "(//x)[position() le 2]"; "//b" ] in
    let extra = oneofl [ ""; " and $q/@k ne '2'"; " and $p = '1'"; " and xs:integer($q) gt 1" ] in
    let order = oneofl [ ""; " order by $q/@k descending"; " order by string($p), $q/@k" ] in
    let wrap = oneofl [ "string-join((%s), ' ')"; "exists(%s)"; "count(%s)"; "(%s)[1]" ] in
    map3
      (fun (l, r) (op, extra, order) w ->
        Printf.sprintf (Scanf.format_from_string w "%s")
          (Printf.sprintf
             "for $p in %s, $q in %s where $p/@k %s $q/@k%s%s return concat(string($p), ':', string($q))"
             l r op extra order))
      (pair side side)
      (triple (oneofl [ "eq"; "=" ]) extra order)
      wrap)

let order_by_gen =
  Q.Gen.(
    let key = oneofl [ "$v/@k"; "$v/@z"; "xs:integer($v) mod 2"; "string($v)"; "$v/../@id"; "(1, 2)" ] in
    let modifier =
      map2 (fun d e -> d ^ e)
        (oneofl [ ""; " ascending"; " descending" ])
        (oneofl [ ""; " empty greatest"; " empty least" ])
    in
    map2
      (fun (k1, m1) (k2, m2) ->
        Printf.sprintf
          "string-join(for $v in //x order by %s%s, %s%s return string($v), ' ')" k1 m1 k2 m2)
      (pair key modifier) (pair key modifier))

(* nested constructors whose content mixes enclosed atomics, text
   literals, document{} content, computed attributes and nodes that are
   fresh (built right there) or not (variables bound to constructed
   nodes, paths, loops returning a variable), observed through node
   identity and order, parents, roots, text-node counts and, after an
   insert or replace applied at a statement boundary, the document and
   the source variable's parent *)
let construct_gen =
  Q.Gen.(
    let leaf =
      frequency
        [
          ( 12,
            oneofl
              [
                "{1}"; "{1, 2}"; "{'a', 3}"; "{''}"; "txt"; "{$x}"; "{$y}"; "{$x, <c/>}";
                "{document { 'd', <g/> }}"; "{document { $x }}"; "{text { 't' }}";
                "{text { '' }}"; "{for $i in 1 to 2 return <i>{$i}</i>}";
                "{for $i in 1 to 2 return $x}"; "{if (exists($x)) then <c/> else 'no'}";
                "{$x/node()}"; "{(<p/>, 'q')[1]}"; "{comment { 'c' }}";
                "{typeswitch ($x) case element() return <t/> default return ()}";
              ] );
          (1, return "{attribute k { 1 }}");
        ]
    in
    let rec content depth =
      let parts =
        if depth = 0 then list_size (int_range 0 3) leaf
        else list_size (int_range 0 3) (frequency [ (3, leaf); (1, element (depth - 1)) ])
      in
      map (String.concat "") parts
    and element depth =
      map2 (fun tag c -> Printf.sprintf "<%s>%s</%s>" tag c tag) (oneofl [ "b"; "e"; "f" ]) (content depth)
    in
    let bound = pair (oneofl [ "<b/>"; "<b>x</b>"; "<b><c/>t</b>"; "text { 'v' }"; "(//x)[1]" ])
        (oneofl [ "<y/>"; "$x"; "'s'"; "document { <y/> }" ]) in
    let binding = map (fun (x, y) -> Printf.sprintf "let $x := %s let $y := %s" x y) bound in
    let observe =
      oneofl
        [
          "$r"; "count($r//text())"; "count($r/text())"; "exists($x/..)"; "root($x) is $x";
          "($r//b)[1] is $x"; "$x << $r"; "($r//*)[1] << ($r//*)[last()]";
          "every $n in $r//node() satisfies root($n) is $r";
          "for $n in $r/node() return count($n/preceding-sibling::node())";
          "string-join(for $n in $r//node() return string(count($n/ancestor::node())), ' ')";
        ]
    in
    let constructed =
      map3
        (fun b c o -> Printf.sprintf "%s let $r := <a>%s</a> return (%s, $r)" b c o)
        binding (content 2) observe
    in
    let source =
      oneof
        [
          oneofl [ "$x"; "($x, <m/>)"; "for $i in 1 to 2 return $x"; "document { $x }"; "('s', 1, <m/>)" ];
          map (Printf.sprintf "<n>%s</n>") (content 1);
        ]
    in
    let update =
      map3
        (fun (x, y) (src, kind) o ->
          Printf.sprintf
            "declare sequential function local:f() { declare variable $x := %s; \
             declare variable $y := %s; %s; %s }; local:f()"
            x y
            (match kind with
            | 0 -> Printf.sprintf "insert nodes %s into (//a)[1]" src
            | 1 -> Printf.sprintf "insert nodes %s before (//x)[2]" src
            | _ -> Printf.sprintf "replace node (//x)[3] with %s" src)
            o)
        bound (pair source (int_bound 2))
        (oneofl [ "exists($x/..)"; "root($x) is $x"; "count((//a)[1]/node())"; "(//a)[1]/node()[last()] is $x" ])
    in
    oneof [ constructed; update ])

(* the value or error code, and the document afterwards: a top-level
   update or a sequential function writes to it *)
let outcome_and_doc ~compiled src =
  Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
      let d = Dom.of_string doc in
      match I.to_display_string (Engine.eval_string ~context_item:(I.Node d) src) with
      | v -> Ok (v ^ " | " ^ Dom.serialize d)
      | exception Xq_error.Error e -> Error e.Xq_error.code)

(* Every subexpression's [upd], which the lowering finds once per node
   from its operands' answers, is [Ast.is_updating] of it. *)
let upd_is_updating src =
  let static = Engine.default_static () in
  match Parser.parse_program static src with
  | exception Xq_error.Error _ -> true
  | prog ->
      let exprs = ref [] in
      let collect e =
        ignore
          (Focus_analysis.exists_expr
             (fun x ->
               exprs := x :: !exprs;
               false)
             e)
      in
      Option.iter collect prog.Ast.body;
      List.iter
        (function
          | Ast.P_function { Ast.body = Some b; _ } -> collect b
          | Ast.P_variable (_, _, Some e) -> collect e
          | _ -> ())
        prog.Ast.prolog;
      List.for_all (fun e -> (fst (Core_ir.lower static e)).Core_ir.upd = Ast.is_updating e) !exprs

let equivalence_properties =
  [
    qt ~count:300 "the lowering's updating flag is Ast.is_updating at every node"
      (Q.make ~print:Fun.id
         (Q.Gen.oneof
            [ update_gen; sequential_gen; typeswitch_gen; join_gen; order_by_gen; src_gen; construct_gen ]))
      upd_is_updating;
    qt ~count:400 "compiled evaluation matches the oracle on all configs"
      (Q.make ~print:Fun.id src_gen)
      all_configs_agree;
    QCheck_alcotest.to_alcotest
      (Q.Test.make ~count:300 ~long_factor:20
         ~name:"production matches the reference on updates, scripting, typeswitch, joins and order by"
         (Q.make ~print:Fun.id
            (Q.Gen.oneof
               [
                 update_gen; sequential_gen; typeswitch_gen; join_gen; order_by_gen; src_gen;
                 construct_gen;
               ]))
         (fun src -> outcome_and_doc ~compiled:true src = outcome_and_doc ~compiled:false src));
  ]

let suite =
  unit_equivalence_tests @ function_tests @ browser_tests
  @ equivalence_properties
