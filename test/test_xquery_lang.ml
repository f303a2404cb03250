(* XQuery language: lexer, parser shapes, core expression evaluation. *)

open Xquery
module A = Xdm_atomic
module I = Xdm_item

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let run src = Engine.eval_string src
let run_str src = I.to_display_string (run src)

let expect_error code src =
  match Engine.eval_string src with
  | exception Xq_error.Error e ->
      check Alcotest.string ("error code of " ^ src) code e.Xq_error.code
  | r -> Alcotest.failf "%s: expected error %s, got %s" src code (I.to_display_string r)

let eq name expected src = t name (fun () -> check Alcotest.string src expected (run_str src))

(* ---------- lexer ---------- *)

let lexer_tests =
  let toks src =
    let lx = Lexer.create src in
    let rec go acc =
      match Lexer.next lx with
      | Lexer.T_eof -> List.rev acc
      | tok -> go (Lexer.token_to_string tok :: acc)
    in
    go []
  in
  [
    t "numbers lex by kind" (fun () ->
        let lx = Lexer.create "1 1.5 .5 2e3 1.5E-2" in
        check Alcotest.bool "int" true (Lexer.next lx = Lexer.T_integer 1);
        check Alcotest.bool "dec" true (Lexer.next lx = Lexer.T_decimal 1.5);
        check Alcotest.bool "dec2" true (Lexer.next lx = Lexer.T_decimal 0.5);
        check Alcotest.bool "dbl" true (Lexer.next lx = Lexer.T_double 2000.);
        check Alcotest.bool "dbl2" true (Lexer.next lx = Lexer.T_double 0.015));
    t "strings with doubled quotes and entities" (fun () ->
        let lx = Lexer.create "\"a\"\"b\" 'c''d' \"x&amp;y\"" in
        check Alcotest.bool "dq" true (Lexer.next lx = Lexer.T_string "a\"b");
        check Alcotest.bool "sq" true (Lexer.next lx = Lexer.T_string "c'd");
        check Alcotest.bool "ent" true (Lexer.next lx = Lexer.T_string "x&y"));
    t "comments nest" (fun () ->
        check (Alcotest.list Alcotest.string) "tokens" [ "1"; "+"; "2" ]
          (toks "1 (: outer (: inner :) still :) + 2"));
    t "variables with prefixes" (fun () ->
        let lx = Lexer.create "$x $ns:y" in
        check Alcotest.bool "plain" true (Lexer.next lx = Lexer.T_var ("x", None));
        check Alcotest.bool "prefixed" true (Lexer.next lx = Lexer.T_var ("y", Some "ns")));
    t "qnames vs axis separator" (fun () ->
        check (Alcotest.list Alcotest.string) "axis" [ "child"; "::"; "a" ] (toks "child::a");
        check (Alcotest.list Alcotest.string) "qname" [ "p:a" ] (toks "p:a"));
    t "wildcards" (fun () ->
        check (Alcotest.list Alcotest.string) "nsw" [ "p:*" ] (toks "p:*");
        check (Alcotest.list Alcotest.string) "lw" [ "*:x" ] (toks "*:x"));
    t "operators" (fun () ->
        check (Alcotest.list Alcotest.string) "ops"
          [ "a"; "<="; "b"; "!="; "c"; ">>"; "d"; ":=" ]
          (toks "a <= b != c >> d :="));
    t "dots" (fun () ->
        check (Alcotest.list Alcotest.string) "dots" [ "."; ".."; "/"; "//" ] (toks ". .. / //"));
    t "snapshot restore" (fun () ->
        let lx = Lexer.create "1 2 3" in
        let _ = Lexer.next lx in
        let snap = Lexer.save lx in
        let _ = Lexer.next lx in
        Lexer.restore lx snap;
        check Alcotest.bool "back to 2" true (Lexer.next lx = Lexer.T_integer 2));
    t "unterminated string is a syntax error" (fun () ->
        match toks "\"abc" with
        | exception Xq_error.Error { Xq_error.code = "XPST0003"; _ } -> ()
        | _ -> Alcotest.fail "expected XPST0003");
  ]

(* ---------- arithmetic & comparisons ---------- *)

let arithmetic_tests =
  [
    eq "precedence" "7" "1 + 2 * 3";
    eq "parens" "9" "(1 + 2) * 3";
    eq "div is decimal" "2.5" "5 div 2";
    eq "idiv truncates" "2" "5 idiv 2";
    eq "mod" "1" "5 mod 2";
    eq "unary minus" "-3" "-(1 + 2)";
    eq "double unary" "3" "--3";
    eq "decimal arithmetic" "3.5" "1.25 + 2.25";
    eq "double exponent" "2500" "2.5e3";
    eq "empty operand yields empty" "" "() + 1";
    eq "untyped operand coerces" "3" "let $d := <a>1</a> return $d + 2";
    t "arith type error" (fun () -> expect_error "XPTY0004" "'a' + 1");
    t "divide by zero" (fun () -> expect_error "FOAR0001" "1 div 0");
    eq "range" "1 2 3 4" "1 to 4";
    eq "empty range" "" "4 to 1";
    eq "range over vars" "5" "count((1 to 5)[. le 5])";
  ]

let comparison_tests =
  [
    eq "general eq over sequences" "true" "(1, 2, 3) = 2";
    eq "general eq false" "false" "(1, 2, 3) = 9";
    eq "general ne exists semantics" "true" "(1, 2) != 2";
    eq "value comparison" "true" "2 eq 2";
    eq "value lt" "true" "1 lt 2";
    eq "string compare" "true" "'abc' lt 'abd'";
    eq "untyped vs number in general comp" "true" "<a>5</a> = 5";
    eq "untyped vs string in general comp" "true" "<a>x</a> = 'x'";
    eq "empty value comp is empty" "" "() eq 1";
    t "value comp on two items fails" (fun () -> expect_error "XPTY0004" "(1,2) eq 1");
    eq "node is" "true" "let $a := <a/> return $a is $a";
    eq "node is false for copies" "false" "<a/> is <a/>";
    eq "node precedes" "true"
      "let $d := <r><a/><b/></r> return ($d/a) << ($d/b)";
    eq "node follows" "true"
      "let $d := <r><a/><b/></r> return ($d/b) >> ($d/a)";
    eq "NaN never equal" "false" "number('x') = number('x')";
    eq "and or" "true" "1 = 1 and (2 = 3 or 4 = 4)";
    eq "and short circuits" "false" "false() and (1 div 0 = 1)";
    eq "or short circuits" "true" "true() or (1 div 0 = 1)";
  ]

(* ---------- FLWOR ---------- *)

let flwor_tests =
  [
    eq "for over literals" "2 4 6" "for $x in (1, 2, 3) return $x * 2";
    eq "for with at" "1:a 2:b" "for $x at $i in ('a','b') return concat($i, ':', $x)";
    eq "nested for" "11 21 12 22" "for $x in (1,2), $y in (10,20) return $y + $x";
    eq "let binding" "30" "let $x := 10 let $y := 20 return $x + $y";
    eq "let shadowing" "2" "let $x := 1 let $x := 2 return $x";
    eq "where filters" "2 4" "for $x in 1 to 5 where $x mod 2 = 0 return $x";
    eq "order by ascending" "1 2 3" "for $x in (3,1,2) order by $x return $x";
    eq "order by descending" "3 2 1" "for $x in (3,1,2) order by $x descending return $x";
    eq "order by string key" "a b c"
      "for $x in ('b','c','a') order by $x return $x";
    eq "order by two keys" "a1 a2 b1"
      "for $p in (('b',1),('a',2),('a',1)) return () , for $x in ('b1','a2','a1') order by substring($x,1,1), substring($x,2) return $x";
    eq "order by empty least default" "1" "(for $x in (1, 3) order by (if ($x = 1) then () else $x) return $x)[1] cast as xs:string";
    eq "order by empty greatest" "3"
      "(for $x in (1, 3) order by (if ($x = 1) then () else $x) empty greatest return $x)[1] cast as xs:string";
    eq "stable sort preserves input order of ties" "b a"
      "for $x in ('b','a') order by string-length($x) return $x";
    eq "positional variable with order" "2 1"
      "for $x at $i in ('x','y') order by $x descending return $i";
    eq "for over path" "laptop mouse"
      "let $d := <ps><p><n>laptop</n></p><p><n>mouse</n></p></ps> for $p in $d/p return string($p/n)";
    eq "typed let coerces untyped" "6"
      "let $x as xs:integer := xs:untypedAtomic('6') return $x";
    t "typed let rejects wrong type" (fun () ->
        expect_error "XPTY0004" "let $x as xs:integer := 'nope' return $x");
  ]

let quantified_typeswitch_tests =
  [
    eq "some true" "true" "some $x in (1,2,3) satisfies $x = 2";
    eq "some false" "false" "some $x in (1,2,3) satisfies $x = 9";
    eq "every true" "true" "every $x in (2,4) satisfies $x mod 2 = 0";
    eq "every false" "false" "every $x in (2,3) satisfies $x mod 2 = 0";
    eq "every over empty is true" "true" "every $x in () satisfies false()";
    eq "some over empty is false" "false" "some $x in () satisfies true()";
    eq "multi-variable quantifier" "true"
      "some $x in (1,2), $y in (2,3) satisfies $x = $y";
    eq "typeswitch picks case" "int"
      "typeswitch (1) case xs:integer return 'int' case xs:string return 'str' default return 'other'";
    eq "typeswitch default" "other"
      "typeswitch (<a/>) case xs:integer return 'int' default return 'other'";
    eq "typeswitch node kind" "element"
      "typeswitch (<a/>) case element() return 'element' case text() return 'text' default return 'other'";
    eq "typeswitch case variable" "5"
      "typeswitch (5) case $i as xs:integer return $i default return 0";
    eq "if then else" "yes" "if (1 = 1) then 'yes' else 'no'";
    eq "if on node sequence ebv" "yes" "if (<a/>) then 'yes' else 'no'";
  ]

(* ---------- paths ---------- *)

let doc_src =
  "let $d := <lib><book year='2001'><title>AAA</title><author>X</author></book>\
   <book year='2003'><title>BBB</title><author>Y</author><author>Z</author></book></lib> return "

let path_tests =
  [
    eq "child step" "2" (doc_src ^ "count($d/book)");
    eq "descendant //" "3" (doc_src ^ "count($d//author)");
    eq "attribute axis" "2001 2003" (doc_src ^ "string-join($d/book/@year, ' ')");
    eq "abbreviated attribute" "2001" (doc_src ^ "string($d/book[1]/@year)");
    eq "predicate by position" "BBB" (doc_src ^ "string($d/book[2]/title)");
    eq "predicate last()" "BBB" (doc_src ^ "string($d/book[last()]/title)");
    eq "predicate by attribute" "AAA" (doc_src ^ "string($d/book[@year='2001']/title)");
    eq "predicate by child value" "2003" (doc_src ^ "string($d/book[title='BBB']/@year)");
    eq "multiple predicates" "1" (doc_src ^ "count($d/book[author='Y'][title='BBB'])");
    eq "wildcard" "2" (doc_src ^ "count($d/*)");
    eq "parent axis" "lib" (doc_src ^ "name($d/book[1]/..)");
    eq "ancestor axis" "3" (doc_src ^ "count($d//title[1]/ancestor::*)");
    eq "self axis with test" "1" (doc_src ^ "count($d/self::lib)");
    eq "self axis failing test" "0" (doc_src ^ "count($d/self::other)");
    eq "following-sibling" "1" (doc_src ^ "count($d/book[1]/following-sibling::book)");
    eq "preceding-sibling" "0" (doc_src ^ "count($d/book[1]/preceding-sibling::book)");
    eq "following axis" "4"
      (doc_src ^ "count($d/book[1]/following::*)");
    eq "preceding axis result in document order" "book"
      (doc_src ^ "name(($d/book[2]/author[1]/preceding::*)[1])");
    eq "descendant-or-self" "8" (doc_src ^ "count($d/descendant-or-self::*)");
    eq "text() test" "AAA" (doc_src ^ "string(($d//title/text())[1])");
    eq "node() includes text" "1" (doc_src ^ "count($d/book[1]/title/node())");
    eq "document order of union result" "AAA BBB"
      (doc_src ^ "string-join(for $t in ($d/book[2]/title | $d/book[1]/title) return string($t), ' ')");
    eq "path dedups" "2" (doc_src ^ "count(($d/book, $d/book)/title/..)");
    eq "reverse axis predicate counts from nearest" "book"
      (doc_src ^ "name(($d//author)[1]/ancestor::*[1])");
    eq "attribute node string value" "2001"
      (doc_src ^ "string($d/book[1]/attribute::year)");
    eq "comparison in predicate with position" "AAA"
      (doc_src ^ "string($d/book[position() = 1]/title)");
    eq "boolean predicate keeps all matching" "2"
      (doc_src ^ "count($d/book[@year])");
    eq "kind test element(name)" "1" (doc_src ^ "count($d/element(book)[1])");
    t "path over atomic fails" (fun () -> expect_error "XPTY0004" "(1)/a");
    t "mixed node/atomic path result fails" (fun () ->
        expect_error "XPTY0018" "<a><b/></a>/(if (b) then (b, 1) else 1)");
  ]

(* ---------- constructors ---------- *)

let constructor_tests =
  [
    eq "direct element with text" "<r>hi</r>" "<r>hi</r>";
    eq "enclosed expression" "<r>2</r>" "<r>{1 + 1}</r>";
    eq "adjacent atomics joined by space" "<r>1 2 3</r>" "<r>{1, 2, 3}</r>";
    eq "attribute from expression" "<r a=\"3\"/>" "<r a=\"{1 + 2}\"/>";
    eq "attribute mixing literal and expr" "<r a=\"v3w\"/>" "<r a=\"v{3}w\"/>";
    eq "nested constructors" "<a><b>1</b></a>" "<a><b>{1}</b></a>";
    eq "construction copies nodes" "false"
      "let $x := <i/> let $y := <o>{$x}</o> return $y/i is $x";
    eq "curly escapes" "<r>{}</r>" "<r>{{}}</r>";
    eq "computed element" "<foo>1</foo>" "element foo { 1 }";
    eq "computed element dynamic name" "<bar/>" "element { concat('b', 'ar') } {}";
    eq "computed attribute" "<e x=\"7\"/>" "<e>{ attribute x { 7 } }</e>";
    eq "computed text" "<e>hi</e>" "<e>{ text { 'hi' } }</e>";
    eq "computed comment" "<!--note-->" "comment { 'note' }";
    eq "computed pi" "<?tgt data?>" "processing-instruction tgt { 'data' }";
    eq "document node constructor" "<a/>" "document { <a/> }";
    eq "attribute nodes become attributes" "<e a=\"1\">text</e>"
      "<e>{ attribute a { 1 }, 'text' }</e>";
    t "attribute after content fails" (fun () ->
        expect_error "XQTY0024" "<e>{ 'text', attribute a { 1 } }</e>");
    t "duplicate direct attribute is a static error" (fun () ->
        expect_error "XQST0040" "<a b=\"1\" b=\"2\"/>";
        expect_error "XQST0040" "<a xmlns:p='u' xmlns:q='u' p:b='1' q:b='2'/>");
    t "duplicate constructed attribute is XQDY0025 in both evaluators" (fun () ->
        List.iter
          (fun compiled ->
            Xmlb.Ablation.with_ { Xmlb.Ablation.current with compiled_eval = compiled }
              (fun () ->
                expect_error "XQDY0025" "element a { attribute b {1}, attribute b {2} }";
                expect_error "XQDY0025" "<a>{attribute b {1}}{attribute b {2}}</a>";
                expect_error "XQDY0025" "<a b='1'>{attribute b {2}}</a>";
                check Alcotest.string "distinct names still build" "<a b=\"1\" c=\"2\"/>"
                  (run_str "element a { attribute b {1}, attribute c {2} }")))
          [ true; false ]);
    eq "document children splice" "<w><a/><b/></w>"
      "<w>{ document { <a/>, <b/> } }</w>";
    eq "sequence of constructors" "<a/> <b/>" "(<a/>, <b/>)";
    eq "constructor inside flwor" "<li>1</li> <li>2</li>"
      "for $i in (1, 2) return <li>{$i}</li>";
    eq "direct nested with namespace decl" "ns-uri"
      "string(namespace-uri(<p:a xmlns:p='ns-uri'/>))";
    eq "comment in constructor" "<a><!--x--></a>" "<a><!--x--></a>";
    eq "entity in constructor text" "<a>&amp;</a>" "<a>&amp;</a>";
  ]

(* Constructor content as XQuery 3.1 §3.9.1.3 forms it — adjacent
   atomics of one enclosed expression joined with spaces, adjacent text
   across expressions merged, empty text dropped — and node identity,
   in production (which links fresh content as it is) and in the
   reference (which copies every node). *)
let content_tests =
  let in_modes = Test_functions.in_modes in
  let both expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  [
    both "1" "count(<a>x{1}y</a>/text())";
    both "x1y" "string(<a>x{1}y</a>)";
    both "1" {|count(<a>{text{"p"}}{text{"q"}}</a>/text())|};
    both "<a>12</a>" "<a>{1}{2}</a>";
    both "<a>12</a>" "<a>{1} {2}</a>";
    both "<a>1 2</a>" "<a>{1, 2}</a>";
    both "<a>1x2</a>" "<a>{1, text{'x'}, 2}</a>";
    both "0" {|count(<a>{""}</a>/text())|};
    both "<a> </a>" {|<a>{"", ""}</a>|};
    both "1" "count(<a>{document{'y', 'z'}}w</a>/text())";
    both "false false" "let $x := <b/> return (<a>{$x}</a>/b is $x, exists($x/..))";
    both "true" "let $a := <a>{<b/>}</a> return $a/b/.. is $a";
    both "true true"
      "let $a := <a>{for $i in 1 to 2 return <b/>}</a> \
       return ($a/b[1] << $a/b[2], root($a/b[2]) is $a)";
    both "2 2"
      "let $x := <b/> \
       return (count(<a>{for $i in 1 to 2 return $x}</a>/b), count(<a>{$x, $x}</a>/b))";
    t "an attribute after text fails, after empty text it does not" (fun () ->
        in_modes (fun () ->
            expect_error "XQTY0024" "<a>x{attribute b {1}}</a>";
            check Alcotest.string "empty text is dropped first" "<a b=\"1\"/>"
              (run_str {|<a>{""}{attribute b {1}}</a>|})));
  ]

(* ---------- types ---------- *)

let type_tests =
  [
    eq "instance of integer" "true" "1 instance of xs:integer";
    eq "integer is decimal" "true" "1 instance of xs:decimal";
    eq "decimal is not integer" "false" "1.5 instance of xs:integer";
    eq "sequence occurrence star" "true" "(1, 2) instance of xs:integer*";
    eq "sequence occurrence plus empty false" "false" "() instance of xs:integer+";
    eq "optional accepts empty" "true" "() instance of xs:integer?";
    eq "one rejects two" "false" "(1, 2) instance of xs:integer";
    eq "element test" "true" "<a/> instance of element()";
    eq "named element test" "true" "<a/> instance of element(a)";
    eq "named element test mismatch" "false" "<a/> instance of element(b)";
    eq "text test" "true" "(<a>t</a>/text()) instance of text()";
    eq "document test" "true" "document { <a/> } instance of document-node()";
    eq "item type" "true" "(1, <a/>) instance of item()+";
    eq "empty-sequence type" "true" "() instance of empty-sequence()";
    eq "cast as" "42" "'42' cast as xs:integer";
    eq "cast as optional on empty" "" "() cast as xs:integer?";
    eq "castable negative" "false" "'x' castable as xs:integer";
    eq "treat as passes" "1" "(1) treat as xs:integer";
    t "treat as fails" (fun () -> expect_error "XPDY0050" "('a') treat as xs:integer");
    t "cast empty to non-optional fails" (fun () ->
        expect_error "XPTY0004" "() cast as xs:integer");
    eq "constructor function" "10" "xs:integer('10')";
    eq "constructor function date" "2008-06-09" "string(xs:date('2008-06-09'))";
  ]

(* ---------- functions & variables declarations ---------- *)

let declaration_tests =
  [
    eq "simple function" "25" "declare function local:sq($x) { $x * $x }; local:sq(5)";
    eq "recursion" "120"
      "declare function local:f($n) { if ($n le 1) then 1 else $n * local:f($n - 1) }; local:f(5)";
    eq "mutual recursion" "true"
      "declare function local:even($n) { if ($n = 0) then true() else local:odd($n - 1) }; \
       declare function local:odd($n) { if ($n = 0) then false() else local:even($n - 1) }; \
       local:even(10)";
    eq "typed params convert untyped" "3"
      "declare function local:add($a as xs:integer, $b as xs:integer) { $a + $b }; \
       local:add(xs:untypedAtomic('1'), 2)";
    eq "return type enforced" "5"
      "declare function local:f() as xs:integer { 5 }; local:f()";
    t "wrong return type fails" (fun () ->
        expect_error "XPTY0004" "declare function local:f() as xs:integer { 'x' }; local:f()");
    eq "global variable" "7" "declare variable $x := 7; $x";
    eq "global depends on global" "10"
      "declare variable $a := 4; declare variable $b := $a + 6; $b";
    eq "function sees globals" "8"
      "declare variable $g := 8; declare function local:get() { $g }; local:get()";
    eq "prolog namespace declaration" "u"
      "declare namespace p = 'u'; string(namespace-uri(<p:e/>))";
    eq "default element namespace" "d-ns"
      "declare default element namespace 'd-ns'; string(namespace-uri(<e/>))";
    t "unknown function" (fun () -> expect_error "XPST0017" "local:nope()");
    t "undefined variable" (fun () -> expect_error "XPST0008" "$nope");
    t "too deep recursion is caught" (fun () ->
        expect_error "XQDY0054"
          "declare function local:f($n) { local:f($n + 1) }; local:f(0)");
    eq "arity overloading" "1 2"
      "declare function local:f() { 1 }; declare function local:f($x) { 2 }; (local:f(), local:f(0))";
  ]

let edge_tests =
  [
    eq "namespace wildcard p:*" "2"
      "declare namespace p='u'; count(<r><p:a/><p:b/><c/></r>/p:*)";
    eq "local wildcard *:a" "2"
      "declare namespace p='u'; count(<r><p:a/><a/><b/></r>/*:a)";
    eq "ordered expression" "1 2" "ordered { (1, 2) }";
    eq "unordered expression" "2" "count(unordered { (1, 2) })";
    eq "pragma falls back to its content" "5" "(# ext:hint value #) { 2 + 3 }";
    eq "boundary-space strip default" "<a><b/></a>" "<a> <b/> </a>";
    eq "boundary-space preserve" "<a> <b/> </a>"
      "declare boundary-space preserve; <a> <b/> </a>";
    eq "default function namespace" "2"
      "declare default function namespace 'http://www.w3.org/2005/xpath-functions'; count((1,2))";
    eq "numeric predicate on parenthesized sequence" "b" "name((<a/>, <b/>, <c/>)[2])";
    eq "predicate chain on filter" "20" "(10, 20, 30)[. > 15][1]";
    eq "nested predicates" "1"
      "count(<r><a><b v='1'/></a><a><b v='2'/></a></r>/a[b[@v='2']])";
    eq "predicate on attribute step" "1"
      "let $d := <r><x k='a'/><x k='b'/></r> return count($d/x/@k[. = 'b'])";
    eq "arithmetic on attribute values" "3"
      "let $d := <r a='1' b='2'/> return $d/@a + $d/@b";
    eq "string functions compose" "HELLO-WORLD"
      "upper-case(concat(substring('hello!', 1, 5), '-', 'world'))";
    eq "comparison of dates from strings" "true"
      "xs:date('2008-01-01') < xs:date('2008-06-09')";
    eq "chained path over constructed tree" "v"
      "string(<a><b><c>v</c></b></a>/b/c)";
    eq "context item in nested function-less predicate" "2 3"
      "(1, 2, 3)[. ge 2]";
    eq "union mixed then count" "3"
      "let $d := <r><a/><b/><c/></r> return count($d/a | $d/b | $d/c)";
    eq "except keeps order" "a c"
      "let $d := <r><a/><b/><c/></r> return string-join(for $n in ($d/* except $d/b) return name($n), ' ')";
    eq "intersect" "b"
      "let $d := <r><a/><b/></r> return name(($d/* intersect $d/b))";
    eq "quantified over attributes" "true"
      "let $d := <r><x v='1'/><x v='2'/></r> return some $a in $d/x/@v satisfies $a = '2'";
    eq "deep flwor with let in loop" "1 4 9"
      "for $i in 1 to 3 let $sq := $i * $i return $sq";
    eq "string of empty sequence" "" "string(())";
    eq "text node identity inside element" "true"
      "let $e := <a>t</a> return ($e/text())[1] is ($e/node())[1]";
    eq "empty attribute value" "<a x=\"\"/>" "<a x=\"\"/>";
    eq "self-closing with space" "<br/>" "<br />";
  ]

(* A character reference must name an XML character (XQST0090), in a
   string literal as in direct constructor content and attributes. *)
let char_ref_tests =
  [
    eq "character references decode" "A \xF0\x9F\x98\x80 \xEF\xBF\xBD"
      "('&#65;', '&#x1F600;', '&#xFFFD;')";
    eq "a reference in constructor content decodes" "<a b=\"A\">A</a>" "<a b='&#x41;'>&#65;</a>";
    t "a reference to NUL in a string literal fails" (fun () -> expect_error "XQST0090" "'&#0;'");
    t "a surrogate reference in a string literal fails" (fun () ->
        expect_error "XQST0090" "\"&#xD800;\"");
    t "malformed and overflowing references fail" (fun () ->
        expect_error "XQST0090" "'&#xZZ;'";
        expect_error "XQST0090" "'&#99999999999999999999;'";
        expect_error "XQST0090" "'&#xFFFE;'");
    t "a bad reference in element content fails" (fun () -> expect_error "XQST0090" "<a>&#0;</a>");
    t "an upper-case X is not a hex marker" (fun () ->
        expect_error "XQST0090" "'&#X41;'";
        expect_error "XQST0090" "<a b=\"&#X41;\"/>";
        expect_error "XQST0090" "<a>&#X41;</a>");
    t "a bad reference in an attribute fails" (fun () ->
        expect_error "XQST0090" "<a b=\"x&#xD800;\"/>");
    t "the message names the reference" (fun () ->
        match Engine.eval_string "'ab&#1;'" with
        | exception Xq_error.Error e ->
            check Alcotest.bool e.Xq_error.message true
              (Str.string_match (Str.regexp ".*&#1;") e.Xq_error.message 0)
        | _ -> Alcotest.fail "expected XQST0090");
    t "codepoints-to-string shares the character check" (fun () ->
        expect_error "FOCH0001" "codepoints-to-string(0)";
        expect_error "FOCH0001" "codepoints-to-string(55296)";
        check Alcotest.string "tab" "\t" (run_str "codepoints-to-string(9)"));
  ]

let suite =
  lexer_tests @ arithmetic_tests @ comparison_tests @ flwor_tests
  @ quantified_typeswitch_tests @ path_tests @ constructor_tests @ content_tests @ type_tests
  @ declaration_tests @ edge_tests @ char_ref_tests
