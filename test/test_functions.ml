(* The fn: built-in function library. *)

open Xquery
module I = Xdm_item

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let run_str src = I.to_display_string (Engine.eval_string src)
let eq name expected src = t name (fun () -> check Alcotest.string src expected (run_str src))

let expect_error code src =
  match Engine.eval_string src with
  | exception Xq_error.Error e -> check Alcotest.string src code e.Xq_error.code
  | r -> Alcotest.failf "%s: expected %s, got %s" src code (I.to_display_string r)

let string_tests =
  [
    eq "concat" "abc" "concat('a', 'b', 'c')";
    eq "concat coerces" "x1" "concat('x', 1)";
    eq "concat variadic" "abcd" "concat('a','b','c','d')";
    eq "string-join" "a-b" "string-join(('a','b'), '-')";
    eq "string-join empty" "" "string-join((), ',')";
    eq "substring from" "world" "substring('Hello world', 7)";
    eq "substring with length" "ell" "substring('Hello', 2, 3)";
    eq "substring fractional start rounds" "234" "substring('12345', 1.5, 2.6)";
    eq "substring beyond end" "" "substring('ab', 5)";
    eq "string-length" "5" "string-length('Hello')";
    eq "string-length of empty seq" "0" "string-length(())";
    eq "string-length counts code points" "3" "string-length('a&#x20AC;b')";
    eq "normalize-space" "a b c" "normalize-space('  a   b&#x9;c  ')";
    eq "upper-case" "ABC" "upper-case('aBc')";
    eq "lower-case" "abc" "lower-case('AbC')";
    eq "translate" "ABr" "translate('bar','ab','BA')";
    eq "translate removal" "AAA" "translate('A-A-A', '-', '')";
    eq "contains" "true" "contains('XQuery in the browser', 'browser')";
    eq "contains empty needle" "true" "contains('x', '')";
    eq "contains false" "false" "contains('abc', 'z')";
    eq "starts-with" "true" "starts-with('hello', 'he')";
    eq "ends-with" "true" "ends-with('hello', 'lo')";
    eq "substring-before" "he" "substring-before('hello', 'llo')";
    eq "substring-before absent" "" "substring-before('hello', 'z')";
    eq "substring-after" "llo" "substring-after('hello', 'he')";
    eq "compare" "-1" "compare('a', 'b')";
    eq "matches" "true" "matches('abc123', '[0-9]+')";
    eq "matches anchored" "false" "matches('abc', '^x')";
    eq "matches case-insensitive flag" "true" "matches('ABC', 'abc', 'i')";
    eq "replace" "a-c" "replace('abc', 'b', '-')";
    eq "replace with group" "[ab]" "replace('ab', '(a)(b)', '[$1$2]')";
    eq "tokenize" "a b c" "string-join(tokenize('a,b,c', ','), ' ')";
    eq "tokenize on whitespace class" "3" "count(tokenize('1 2  3', '\\s+'))";
    eq "codepoints-to-string" "AB" "codepoints-to-string((65, 66))";
    eq "string-to-codepoints" "65 66" "string-join(for $c in string-to-codepoints('AB') return string($c), ' ')";
    eq "encode-for-uri" "a%20b%2Fc" "encode-for-uri('a b/c')";
  ]

let numeric_tests =
  [
    eq "abs" "3" "abs(-3)";
    eq "abs decimal" "1.5" "abs(-1.5)";
    eq "ceiling" "2" "ceiling(1.1)";
    eq "floor" "1" "floor(1.9)";
    eq "round half up" "2" "round(1.5)";
    eq "round negative half" "-1" "round(-1.5)";
    eq "round-half-to-even" "2" "round-half-to-even(1.5)";
    eq "round-half-to-even down" "2" "round-half-to-even(2.5)";
    eq "round-half-to-even precision" "1.57" "string(round-half-to-even(1.5678, 2))";
    eq "number of string" "42" "number('42')";
    eq "number NaN" "NaN" "string(number('x'))";
    eq "numeric empty args propagate" "" "abs(())";
  ]

let boolean_tests =
  [
    eq "true/false" "true false" "(true(), false())";
    eq "not" "false" "not(1 = 1)";
    eq "not of empty" "true" "not(())";
    eq "boolean of string" "true" "boolean('x')";
    eq "boolean of zero" "false" "boolean(0)";
  ]

let sequence_tests =
  [
    eq "empty/exists" "true false false true"
      "(empty(()), empty((1)), exists(()), exists((1)))";
    eq "count" "3" "count((1, 2, 3))";
    eq "count empty" "0" "count(())";
    eq "head tail" "1 2 3" "(head((1,2,3)), tail((1,2,3)))";
    eq "reverse" "3 2 1" "reverse((1, 2, 3))";
    eq "insert-before middle" "1 9 2" "insert-before((1, 2), 2, 9)";
    eq "insert-before clamps" "9 1" "insert-before((1), 0, 9)";
    eq "insert-before past end appends" "1 9" "insert-before((1), 5, 9)";
    eq "remove" "1 3" "remove((1, 2, 3), 2)";
    eq "remove out of range" "1 2" "remove((1, 2), 7)";
    eq "subsequence" "2 3" "subsequence((1,2,3,4), 2, 2)";
    eq "subsequence to end" "3 4" "subsequence((1,2,3,4), 3)";
    eq "distinct-values" "1 2 3" "distinct-values((1, 2, 1, 3, 2))";
    eq "distinct-values mixed numeric" "1" "string(count(distinct-values((1, 1.0))))";
    eq "index-of" "2 4" "index-of((10, 20, 30, 20), 20)";
    eq "index-of absent" "" "index-of((1, 2), 9)";
    eq "deep-equal atoms" "true" "deep-equal((1, 'a'), (1, 'a'))";
    eq "deep-equal nodes" "true" "deep-equal(<a x='1'><b/></a>, <a x='1'><b/></a>)";
    eq "deep-equal attr order irrelevant" "true"
      "deep-equal(<a x='1' y='2'/>, <a y='2' x='1'/>)";
    eq "deep-equal differs" "false" "deep-equal(<a/>, <b/>)";
    eq "zero-or-one ok" "1" "zero-or-one((1))";
    eq "exactly-one ok" "1" "exactly-one((1))";
    t "zero-or-one fails" (fun () -> expect_error "FORG0003" "zero-or-one((1,2))");
    t "one-or-more fails" (fun () -> expect_error "FORG0004" "one-or-more(())");
    t "exactly-one fails" (fun () -> expect_error "FORG0005" "exactly-one(())");
    eq "unordered passthrough" "3" "count(unordered((1,2,3)))";
  ]

let aggregate_tests =
  [
    eq "sum" "6" "sum((1, 2, 3))";
    eq "sum empty is zero" "0" "sum(())";
    eq "sum with zero value" "0" "sum((), 0)";
    eq "sum over untyped" "3" "sum((<a>1</a>, <a>2</a>))";
    eq "avg" "2" "avg((1, 2, 3))";
    eq "avg empty" "" "avg(())";
    eq "avg decimal result" "1.5" "avg((1, 2))";
    eq "max" "3" "max((1, 3, 2))";
    eq "min" "1" "min((3, 1, 2))";
    eq "max strings" "c" "max(('a', 'c', 'b'))";
    eq "max untyped numeric" "10" "max((<a>9</a>, <a>10</a>))";
    eq "count of flwor" "2" "count(for $x in (1,2) return <a/>)";
  ]

let node_tests =
  [
    eq "name" "book" "name(<book/>)";
    eq "name of attribute" "id" "let $e := <a id='1'/> return name($e/@id)";
    eq "local-name with prefix" "x" "declare namespace p='u'; local-name(<p:x/>)";
    eq "namespace-uri" "u" "declare namespace p='u'; namespace-uri(<p:x/>)";
    eq "namespace-uri empty for plain" "" "namespace-uri(<x/>)";
    eq "node-name returns qname" "a" "string(node-name(<a/>))";
    eq "root" "r" "let $d := <r><a><b/></a></r> return name(root($d//b))";
    eq "position in predicate" "b" "name((<a/>, <b/>)[position() = 2])";
    eq "last" "c" "name((<a/>, <b/>, <c/>)[last()])";
    eq "fn:id finds element" "target"
      "let $d := <r><x id='k'>target</x></r> return string(id('k', $d))";
    eq "data" "1 2" "data((<a>1</a>, <a>2</a>))";
    eq "string of node" "txt" "string(<a>txt</a>)";
    eq "string contextless arg" "5" "string(5)";
    eq "trace passes value" "7" "trace(7, 'dbg')";
  ]

let qname_datetime_tests =
  [
    eq "QName" "true" "QName('urn:x', 'p:loc') = QName('urn:x', 'q:loc')";
    eq "local-name-from-QName" "loc" "local-name-from-QName(QName('u', 'p:loc'))";
    eq "namespace-uri-from-QName" "u" "namespace-uri-from-QName(QName('u', 'loc'))";
    eq "current-date deterministic" "2008-06-09Z" "string(current-date())";
    eq "current-dateTime deterministic" "2008-06-09T12:00:00Z" "string(current-dateTime())";
    eq "year-from-date" "2008" "year-from-date(xs:date('2008-06-09'))";
    eq "month-from-date" "6" "month-from-date(xs:date('2008-06-09'))";
    eq "day-from-date" "9" "day-from-date(xs:date('2008-06-09'))";
    eq "hours-from-dateTime" "14" "hours-from-dateTime(xs:dateTime('2008-06-09T14:30:05'))";
    eq "minutes-from-time" "30" "minutes-from-time(xs:time('14:30:05'))";
    eq "seconds-from-dateTime" "5" "seconds-from-dateTime(xs:dateTime('2008-06-09T14:30:05'))";
    eq "years-from-duration" "1" "years-from-duration(xs:yearMonthDuration('P1Y6M'))";
    eq "months-from-duration" "6" "months-from-duration(xs:yearMonthDuration('P1Y6M'))";
    eq "days-from-duration" "2" "days-from-duration(xs:dayTimeDuration('P2DT5H'))";
    eq "hours-from-duration" "5" "hours-from-duration(xs:dayTimeDuration('P2DT5H'))";
    eq "date arithmetic in query" "2008-06-12"
      "string(xs:date('2008-06-09') + xs:dayTimeDuration('P3D'))";
    eq "dateTime comparison" "true"
      "xs:dateTime('2008-06-09T12:00:00Z') lt xs:dateTime('2008-06-09T13:00:00Z')";
  ]

let timezone_tests =
  [
    eq "fn:dateTime combines date and time" "2008-06-09T14:30:00"
      "string(dateTime(xs:date('2008-06-09'), xs:time('14:30:00')))";
    eq "fn:dateTime keeps the date's timezone" "2008-06-09T10:00:00Z"
      "string(dateTime(xs:date('2008-06-09Z'), xs:time('10:00:00')))";
    eq "fn:dateTime empty propagates" "0" "count(dateTime((), xs:time('10:00:00')))";
    eq "timezone-from-dateTime" "PT2H"
      "string(timezone-from-dateTime(xs:dateTime('2008-06-09T10:00:00+02:00')))";
    eq "timezone-from-date absent" "0"
      "count(timezone-from-date(xs:date('2008-06-09')))";
    eq "implicit-timezone is UTC" "PT0S" "string(implicit-timezone())";
    eq "adjust-dateTime-to-timezone shifts the clock" "2008-06-09T12:00:00+02:00"
      "string(adjust-dateTime-to-timezone(xs:dateTime('2008-06-09T10:00:00Z'), xs:dayTimeDuration('PT2H')))";
    eq "adjust to empty strips the timezone" "2008-06-09T10:00:00"
      "string(adjust-dateTime-to-timezone(xs:dateTime('2008-06-09T10:00:00Z'), ()))";
    eq "adjust naive dateTime attaches the timezone" "2008-06-09T10:00:00+01:00"
      "string(adjust-dateTime-to-timezone(xs:dateTime('2008-06-09T10:00:00'), xs:dayTimeDuration('PT1H')))";
    eq "adjust-time-to-timezone" "09:30:00-03:00"
      "string(adjust-time-to-timezone(xs:time('12:30:00Z'), xs:dayTimeDuration('-PT3H')))";
  ]

let uri_misc_tests =
  [
    eq "prefix-from-QName" "p" "prefix-from-QName(QName('u', 'p:x'))";
    eq "prefix-from-QName without prefix" "0" "count(prefix-from-QName(QName('u', 'x')))";
    eq "resolve-uri absolute passthrough" "http://a/b"
      "string(resolve-uri('http://a/b', 'http://base/x'))";
    eq "resolve-uri path-relative" "http://base/dir/doc.xml"
      "string(resolve-uri('doc.xml', 'http://base/dir/page.html'))";
    eq "resolve-uri authority-relative" "http://base/abs"
      "string(resolve-uri('/abs', 'http://base/dir/page.html'))";
    eq "fn:lang matches exactly" "true"
      "let $d := <p xml:lang='en'><q/></p> return lang('en', ($d//q)[1])";
    eq "fn:lang matches a sublanguage" "true"
      "let $d := <p xml:lang='en-US'/> return lang('en', $d)";
    eq "fn:lang rejects others" "false"
      "let $d := <p xml:lang='de'/> return lang('en', $d)";
    eq "nilled is false on elements" "false" "nilled(<a/>)";
    eq "nilled empty on non-elements" "0" "count(nilled(<a>t</a>/text()))";
  ]

let error_doc_tests =
  [
    t "fn:error default" (fun () -> expect_error "FOER0000" "error()");
    t "fn:error custom" (fun () ->
        expect_error "MYERR" "error(QName('u', 'MYERR'), 'boom')");
    t "doc unavailable by default" (fun () -> expect_error "FODC0002" "doc('x.xml')");
    eq "doc-available false" "false" "doc-available('x.xml')";
    t "unknown function reports arity" (fun () ->
        expect_error "XPST0017" "string-join('a','b','c')");
  ]

(* Hostile arguments raise typed errors, never a bare [Failure] *)
let typed_error_tests =
  [
    t "matches: invalid pattern is FORX0002" (fun () ->
        expect_error "FORX0002" "matches('a', '(')");
    t "replace: invalid pattern is FORX0002" (fun () ->
        expect_error "FORX0002" "replace('a', '(', 'x')");
    t "tokenize: invalid pattern is FORX0002" (fun () ->
        expect_error "FORX0002" "tokenize('a', '(')");
    t "replace: empty-matching pattern is FORX0003" (fun () ->
        expect_error "FORX0003" "replace('abc', '', 'x')");
    t "tokenize: empty-matching pattern is FORX0003" (fun () ->
        expect_error "FORX0003" "tokenize('a', '')");
    t "codepoints-to-string: negative is FOCH0001" (fun () ->
        expect_error "FOCH0001" "codepoints-to-string(-1)");
    t "codepoints-to-string: past U+10FFFF is FOCH0001" (fun () ->
        expect_error "FOCH0001" "codepoints-to-string(1114112)");
    t "codepoints-to-string: a non-XML character is FOCH0001" (fun () ->
        expect_error "FOCH0001" "codepoints-to-string((65, 0))");
    t "codepoints-to-string: a surrogate is FOCH0001" (fun () ->
        expect_error "FOCH0001" "codepoints-to-string(55296)");
  ]

(* The range builders — the reference evaluator's and the closure
   compiler's eager and streamed ones — and rounding, in both
   evaluators *)
let in_modes f =
  List.iter
    (fun compiled ->
      Xmlb.Ablation.with_ { Xmlb.Ablation.current with compiled_eval = compiled } f)
    [ true; false ]

let range_rounding_tests =
  let overflow src = t src (fun () -> in_modes (fun () -> expect_error "FOAR0002" src)) in
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  [
    overflow "count(0 to 4611686018427387903)";
    overflow "(0 to 4611686018427387903)[1]";
    overflow "for $i in 0 to 4611686018427387903 return $i";
    overflow "exists(for $i in (-1 to 4611686018427387903) where $i gt 5 return $i)";
    value "4" "count(4611686018427387900 to 4611686018427387903)";
    value "1.5" "round-half-to-even(1.5, 400)";
    value "0" "round-half-to-even(1.5, -400)";
    value "2" "round-half-to-even(2.5)";
    value "3.14" "round-half-to-even(3.14159, 2)";
  ]

(* fn:max and fn:min return the converted values' common numeric type
   (F&O 3.1 §14.4.3-4), in both evaluators: an xs:double among them,
   an untyped value cast included, makes the result xs:double *)
let extremum_type_tests =
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  [
    value "true" "max((3, 2.5e0)) instance of xs:double";
    value "true" "min((1, 2.5e0)) instance of xs:double";
    value "true" "max((5, 5.0e0)) instance of xs:double";
    value "true" "min((2.5e0, 3)) instance of xs:double";
    value "true" "max((<a>1</a>, 2)) instance of xs:double";
    value "3" "max((3, 2.5e0))";
    value "true" "max((1, 2)) instance of xs:integer";
    value "true" "max((1, 2.5)) instance of xs:decimal";
  ]

(* fn:max and fn:min return NaN when the converted sequence holds one
   (F&O 3.1 §14.4.3-4), wherever it stands and whatever its type, in
   both evaluators; values that do not compare still raise FORG0006 *)
let extremum_nan_tests =
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  List.concat_map
    (fun f ->
      let call args = Printf.sprintf "%s((%s))" f args in
      [
        value "NaN" (call "1, xs:double('NaN')");
        value "NaN" (call "xs:double('NaN'), 1");
        value "NaN" (call "xs:untypedAtomic('NaN'), 1");
        value "NaN" (call "1, xs:untypedAtomic('NaN')");
        value "NaN" (call "xs:float('NaN'), xs:float(2)");
        value "NaN" (call "xs:float(2), xs:float('NaN')");
        value "NaN" (call "<a>3</a>, <a>NaN</a>, <a>1</a>");
        value "NaN" (call "2, 0e0 div 0, 1");
        t (call "xs:double('NaN'), 'a'") (fun () ->
            in_modes (fun () -> expect_error "FORG0006" (call "xs:double('NaN'), 'a'")));
      ])
    [ "max"; "min" ]
  @ [
      t "max and min of infinities" (fun () ->
          in_modes (fun () ->
              check Alcotest.string "max" "INF" (run_str "max((1, xs:double('INF')))");
              check Alcotest.string "min" "-INF" (run_str "min((xs:double('-INF'), 1))")));
    ]

(* fn:sum, fn:avg, fn:max and fn:min convert their values as F&O 3.1
   §14.4 asks, in both evaluators: an untyped value is an xs:double;
   sum and avg take numbers or durations of one kind, max and min the
   values of one ordered type, an xs:anyURI comparing as, and among
   strings becoming, an xs:string; anything else is FORG0006. Among
   integers and decimals, an integer winner of max or min stays an
   xs:integer. Of two equal zeros, max is +0 and min -0, in any
   order. *)
let aggregate_conversion_tests =
  let raises code src = t src (fun () -> in_modes (fun () -> expect_error code src)) in
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  [
    raises "FORG0001" "sum(<a>abc</a>)";
    raises "FORG0001" "avg((1, xs:untypedAtomic('x')))";
    raises "FORG0006" "sum('a')";
    raises "FORG0006" "sum(true())";
    raises "FORG0006" "sum(('a', 'b'))";
    raises "FORG0006" "sum((1, 'a'))";
    raises "FORG0006" "avg('a')";
    raises "FORG0006" "avg((xs:dayTimeDuration('PT1H'), 1))";
    raises "FORG0006" "sum((xs:yearMonthDuration('P1Y'), xs:dayTimeDuration('P1D')))";
    raises "FORG0006" "sum(xs:duration('P1Y'))";
    raises "FORG0006" "sum(xs:date('2008-06-09'))";
    value "true" "sum(xs:untypedAtomic('5')) instance of xs:double";
    value "true" "sum(<a>5</a>) instance of xs:double";
    value "true" "avg(xs:untypedAtomic('5')) instance of xs:double";
    value "true" "sum((1, 2)) instance of xs:integer";
    value "true" "sum((1, 2.5)) instance of xs:decimal";
    value "false" "sum((1, 2.5)) instance of xs:double";
    value "6.5" "sum((1, 2.5, 3e0))";
    value "true" "avg((1, 2)) instance of xs:decimal";
    value "P1Y2M" "sum((xs:yearMonthDuration('P1Y'), xs:yearMonthDuration('P2M')))";
    value "PT1H30M" "avg((xs:dayTimeDuration('PT1H'), xs:dayTimeDuration('PT2H')))";
    value "z" "sum((), 'z')";
    value "" "sum((), ())";
    value "true" "max((xs:anyURI('b'), 'a')) instance of xs:string";
    value "true" "min(('b', xs:anyURI('a'))) instance of xs:string";
    value "a" "min(('b', xs:anyURI('a')))";
    value "true" "max((xs:anyURI('a'), xs:anyURI('b'))) instance of xs:anyURI";
    value "true" "max((3, 2.5)) instance of xs:integer";
    value "true" "min((2.5, 1, 1.5)) instance of xs:integer";
    value "true" "max((2.5, 3.5, 3)) instance of xs:decimal";
    value "false" "max((2.5, 3.5, 3)) instance of xs:integer";
    value "9007199254740993" "max((9007199254740993, 2.5))";
    value "2009-01-01" "max((xs:date('2008-01-01'), xs:date('2009-01-01')))";
    value "true" "max((true(), false()))";
    raises "FORG0006" "max(('a', 1))";
    raises "FORG0006" "min((1, 'a'))";
    raises "FORG0006" "max((true(), 1))";
    raises "FORG0006" "max((xs:date('2008-01-01'), xs:dateTime('2008-01-01T00:00:00')))";
    raises "FORG0006" "max((xs:yearMonthDuration('P1Y'), xs:dayTimeDuration('P1D')))";
    raises "FORG0006" "max(xs:duration('P1Y'))";
    raises "FORG0006" "min(xs:QName('a'))";
    value "0 0" "(string(max((-0e0, 0e0))), string(max((0e0, -0e0))))";
    value "-0 -0" "(string(min((-0e0, 0e0))), string(min((0e0, -0e0))))";
  ]

(* Integer arithmetic is exact or raises a typed error, in every
   evaluator mode and through constant folding: [$max] and [$min] are
   the int range's ends. *)
let integer_tests =
  let with_ends src =
    "let $max := 4611686018427387903 let $min := -4611686018427387903 - 1 return " ^ src
  in
  let raises code src =
    t src (fun () -> in_modes (fun () -> expect_error code (with_ends src)))
  in
  let value expected src =
    t src (fun () ->
        in_modes (fun () -> check Alcotest.string src expected (run_str (with_ends src))))
  in
  [
    raises "FOAR0002" "$max + 1";
    raises "FOAR0002" "$max - -1";
    raises "FOAR0002" "$max * 2";
    raises "FOAR0002" "$min - 1";
    raises "FOAR0002" "$min idiv -1";
    raises "FOAR0002" "-$min";
    raises "FOAR0002" "abs($min)";
    raises "FOAR0002" "$min * -1";
    raises "FOAR0002" "2147483648 * 2147483648";
    raises "FOAR0002" "sum((4611686018427387903, 1))";
    raises "FOAR0002" "count(1 to 9223372036854775807)";
    raises "FOAR0002" "4611686018427387904";
    raises "FOCA0003" "xs:integer(1e30)";
    raises "FOCA0003" "xs:integer(9.3e18)";
    raises "FOCA0003" "xs:integer(-1e19)";
    raises "FOAR0002" "round-half-to-even($max, -18)";
    value "4611686018427387903" "$max";
    value "-4611686018427387904" "$min";
    value "-4611686018427387903" "$min + 1";
    value "-1" "$min + $max";
    value "4611686014132420609" "2147483647 * 2147483647";
    value "4611686018427387902" "2305843009213693951 * 2";
    value "-4611686018427387904" "xs:integer(-4611686018427387904.0e0)";
    value "9007199254740993" "abs(9007199254740993)";
    value "9007199254740993" "abs(-9007199254740993)";
    value "9007199254740993" "floor(9007199254740993)";
    value "9007199254740993" "ceiling(9007199254740993)";
    value "9007199254740993" "round(9007199254740993)";
    value "9007199254740993" "round-half-to-even(9007199254740993)";
    value "12200" "round-half-to-even(12250, -2)";
    value "-12400" "round-half-to-even(-12350, -2)";
    value "0" "round-half-to-even($max, -19)";
  ]

(* fn:replace, fn:tokenize and fn:matches keep the input's case under
   flag i and raise only typed errors: the replacement string follows
   F&O 3.1 §5.6.4 ($N groups, \$ and \\ escapes), in both evaluators *)
let regex_tests =
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  and raises code src = t src (fun () -> in_modes (fun () -> expect_error code src)) in
  [
    value "abc" {|replace("abc", "(b)", "$1$2")|};
    value "a[]c" {|replace("abc", "(b)|(z)", "[$2]")|};
    raises "FORX0004" {|replace("abc", "b", "\")|};
    value "a$1c" {|replace("abc", "(b)", "\$1")|};
    value "a\\c" {|replace("abc", "b", "\\")|};
    raises "FORX0004" {|replace("abc", "b", "$")|};
    raises "FORX0004" {|replace("abc", "b", "$x")|};
    raises "FORX0004" {|replace("abc", "b", "\x")|};
    value "k-j-a2l" {|replace("abcdefghijkl", "(a)(b)(c)(d)(e)(f)(g)(h)(i)(j)(k)", "$11-$10-$12")|};
    value "a99c" {|replace("abc", "b", "$999")|};
    value "Hell0 W0rld" {|replace("Hello World", "o", "0", "i")|};
    value "A B c" {|string-join(tokenize("AxBXc", "x", "i"), " ")|};
    value "true" {|matches("HELLO", "hel", "i")|};
    value "false" {|matches("HELLO", "hel")|};
  ]

(* durations are exact or raise a typed error: FORG0001 on a malformed
   literal, FODT0002 on overflow, FOCA0005 on a NaN factor; fractional
   seconds print in plain decimals that read back *)
let duration_tests =
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  and raises code src = t src (fun () -> in_modes (fun () -> expect_error code src)) in
  [
    raises "FORG0001" {|xs:duration("P1.5Y")|};
    raises "FORG0001" {|xs:duration("P1Y1Y")|};
    raises "FORG0001" {|xs:duration("P1M1Y")|};
    raises "FORG0001" {|xs:duration("P1DT")|};
    raises "FORG0001" {|xs:duration("P.5D")|};
    raises "FORG0001" {|xs:duration("PT1.S")|};
    raises "FODT0002" {|xs:duration("P9223372036854775807Y")|};
    raises "FODT0002" {|xs:yearMonthDuration("P99999999999999999999M")|};
    raises "FODT0002" {|xs:duration("P999999999999999999Y") + xs:duration("P999999999999999999Y")|};
    raises "FODT0002"
      {|xs:yearMonthDuration("P300000000000000000Y") + xs:yearMonthDuration("P100000000000000000Y")|};
    raises "FODT0002" {|xs:yearMonthDuration("P1Y") * 1e300|};
    raises "FODT0002" {|xs:dayTimeDuration("PT1S") * xs:double("INF")|};
    raises "FOCA0005" {|xs:dayTimeDuration("PT1S") div xs:double("NaN")|};
    raises "FOCA0005" {|xs:dayTimeDuration("PT1S") * xs:double("NaN")|};
    value "P1Y2M3DT4H5M6.5S" {|string(xs:duration("P1Y2M3DT4H5M6.5S"))|};
    value "-PT1M30S" {|string(xs:duration("-PT90S"))|};
    value "P2Y" {|string(xs:yearMonthDuration("P1Y6M") * 1.3333)|};
    value "PT1.1234567S" {|string(xs:dayTimeDuration("PT1.1234567S"))|};
    value "PT0.0000001S" {|string(xs:duration(string(xs:dayTimeDuration("PT0.0000001S"))))|};
    value "PT0.3S" {|string(xs:dayTimeDuration("PT0.1S") * 3)|};
  ]

(* integral doubles below 1e15 print their digits, -0 keeps its sign:
   the strings [Printf.sprintf "%.0f"] gave *)
let double_format_tests =
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  [
    value "-0" "string(-0.0e0)";
    value "0" "string(0.0e0)";
    value "1981" "string(1981.0e0)";
    value "-5" "string(-5.0e0)";
    value "100000000000000" "string(1.0e14)";
    value "99999999999999" "string(99999999999999.0e0)";
    value "1e+15" "string(1.0e15)";
    t "integral doubles format as %.0f did" (fun () ->
        List.iter
          (fun f ->
            check Alcotest.string (Printf.sprintf "%h" f) (Printf.sprintf "%.0f" f)
              (Xdm_atomic.to_string (Xdm_atomic.Double f)))
          [ -0.; 0.; 1.; -1.; 1981.; -5.; 1e14; -1e14; 99999999999999.; 999999999999999.;
            -999999999999999. ]);
    t "integers format as string_of_int does" (fun () ->
        List.iter
          (fun i ->
            check Alcotest.string (string_of_int i) (string_of_int i)
              (Xdm_atomic.to_string (Xdm_atomic.Integer i)))
          [ 0; 1; -1; 9; 10; -9; -10; 99; 100; -100; 1981; max_int; min_int; max_int / 10;
            min_int / 10 ]);
  ]

(* The data model's constraints hold after construction and update, in
   both evaluators: no element ends up with two attributes of one name
   (XUDY0021, XQUF §3.2.2), and a document node has no attributes
   (XPTY0004, XQuery 3.1 §3.9.3.3). *)
let data_model_tests =
  let raises code src = t src (fun () -> in_modes (fun () -> expect_error code src)) in
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  let e1 = {|let $e := <e x="1"/> return |} and e2 = {|let $e := <e x="1" y="2"/> return |} in
  [
    raises "XUDY0021" (e1 ^ "(insert node attribute x {2} into $e, $e)");
    raises "XUDY0021" "let $e := <e/> return (insert node (attribute x {1}, attribute x {2}) into $e, $e)";
    raises "XUDY0021" (e2 ^ {|(rename node $e/@x as "y", $e)|});
    raises "XUDY0021" (e2 ^ "(replace node $e/@x with attribute y {3}, $e)");
    raises "XUDY0021" {|copy $c := <e x="1"/> modify insert node attribute x {2} into $c return $c|};
    raises "XUDY0021" {|copy $c := <e x="1" y="2"/> modify rename node $c/@x as "y" return $c|};
    raises "XUDY0021" {|copy $c := <e x="1" y="2"/> modify replace node $c/@x with attribute y {3} return $c|};
    value {|<e x="2"/>|} (e1 ^ "(insert node attribute x {2} into $e, delete node $e/@x, $e)");
    value {|<e y="1" x="2"/>|} (e2 ^ {|(rename node $e/@x as "y", rename node $e/@y as "x", $e)|});
    raises "XPTY0004" "document { attribute x {1}, <a/> }";
    value "<a/>" "document { <a/> }";
  ]

(* Casts and fn:number read only the lexical forms of XML Schema 1.0,
   not OCaml's own ([0x10], [1_000], [inf], ...); a sequence with no
   effective boolean value is FORG0006. In both evaluators. *)
let lexical_form_tests =
  let raises code src = t src (fun () -> in_modes (fun () -> expect_error code src)) in
  let value expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  List.map (raises "FORG0001")
    [
      {|xs:integer("0x10")|}; {|xs:integer("1_000")|}; {|xs:integer("0b11")|};
      {|xs:decimal("INF")|}; {|xs:decimal("nan")|}; {|xs:decimal("1e3")|};
      {|xs:double("inf")|}; {|xs:double("infinity")|}; {|xs:double("0x1p3")|};
      {|xs:double("1_0")|};
    ]
  @ [
      value "NaN NaN NaN NaN" {|(number("0x10"), number("1_000"), number("inf"), number("0x1p3"))|};
      value "7 5 -INF NaN 1500"
        {|(xs:integer(" 7 "), xs:integer("+5"), xs:double("-INF"), xs:double("NaN"), xs:double("1.5e3"))|};
      value "7 5 -INF NaN 1500"
        {|(number(" 7 "), number("+5"), number("-INF"), number("NaN"), number("1.5e3"))|};
      raises "FORG0006" "if ((1,2)) then 1 else 0";
      raises "FORG0006" "boolean(xs:date('2008-06-09'))";
    ]
  (* date and time fields are runs of ASCII digits: a year of four or
     more, two for every other field; a zone is at most 14:00 *)
  @ List.map (raises "FORG0001")
      [
        {|xs:date("0x7D8-01-01")|}; {|xs:date("+2008-01-01")|};
        {|xs:dateTime("2008-01-01T10:00:00+-1:00")|}; {|xs:date("208-01-01")|};
        {|xs:time("1_:00:00")|}; {|xs:time("10:00:00.")|}; {|xs:date("2008-01-01+14:30")|};
      ]
  @ [
      value "2008-01-01 -0044-03-15 2008-01-01Z 10:00:00.5+05:30 -0044-03-15T10:00:00"
        {|(xs:date("2008-01-01"), xs:date("-0044-03-15"), xs:date("2008-01-01Z"),
           xs:time("10:00:00.5+05:30"), xs:dateTime("-0044-03-15T10:00:00"))|};
      (* a valid lexical form outside the int range *)
      raises "FOCA0003" {|xs:integer("99999999999999999999")|};
      raises "FOCA0003" {|xs:integer("-99999999999999999999")|};
    ]

let suite =
  string_tests @ numeric_tests @ boolean_tests @ sequence_tests
  @ aggregate_tests @ aggregate_conversion_tests @ extremum_nan_tests @ extremum_type_tests @ node_tests @ qname_datetime_tests @ timezone_tests
  @ uri_misc_tests @ error_doc_tests @ typed_error_tests @ range_rounding_tests
  @ integer_tests @ regex_tests @ duration_tests @ double_format_tests @ data_model_tests
  @ lexical_form_tests
