(* Property-based tests (qcheck): invariants of the XML layer, the DOM,
   the atomic type system, and parse/print round trips. *)

open Xmlb
module A = Xdm_atomic
module Q = QCheck

let qt ?(count = 200) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ?long_factor ~name gen prop)

(* ---------- generators ---------- *)

let name_gen =
  Q.Gen.(
    let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25) in
    map (fun cs -> String.concat "" (List.map (String.make 1) cs)) (list_size (int_range 1 8) letter))

let text_gen =
  Q.Gen.(
    let ch =
      frequency
        [
          (20, map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25));
          (3, return ' ');
          (1, oneofl [ '<'; '>'; '&'; '\''; '"' ]);
        ]
    in
    map (fun cs -> String.concat "" (List.map (String.make 1) cs)) (list_size (int_range 1 20) ch))

(* random XML tree *)
let rec tree_gen depth =
  Q.Gen.(
    if depth <= 0 then map (fun t -> Xml_parser.Text t) text_gen
    else
      frequency
        [
          (2, map (fun t -> Xml_parser.Text t) text_gen);
          ( 3,
            map3
              (fun name attrs children ->
                let attrs =
                  List.mapi
                    (fun i (n, v) ->
                      { Xml_parser.name = Qname.make (n ^ string_of_int i); value = v })
                    attrs
                in
                Xml_parser.Element (Qname.make name, attrs, children))
              name_gen
              (list_size (int_bound 3) (pair name_gen text_gen))
              (list_size (int_bound 3) (tree_gen (depth - 1))) );
        ])

let element_gen =
  Q.Gen.(
    map3
      (fun name attrs children ->
        let attrs =
          List.mapi
            (fun i (n, v) -> { Xml_parser.name = Qname.make (n ^ string_of_int i); value = v })
            attrs
        in
        Xml_parser.Element (Qname.make name, attrs, children))
      name_gen
      (list_size (int_bound 3) (pair name_gen text_gen))
      (list_size (int_bound 4) (tree_gen 2)))

let tree_arbitrary =
  Q.make ~print:(fun t -> Xml_serializer_oracle.to_string t) element_gen

(* merge adjacent text nodes: parsing cannot distinguish "a"+"b" from "ab" *)
let rec normalize_tree = function
  | Xml_parser.Element (n, attrs, children) ->
      let rec merge = function
        | Xml_parser.Text a :: Xml_parser.Text b :: rest ->
            merge (Xml_parser.Text (a ^ b) :: rest)
        | x :: rest -> normalize_tree x :: merge rest
        | [] -> []
      in
      Xml_parser.Element (n, attrs, merge children)
  | t -> t

let properties_xml =
  [
    qt "serialize/parse round trip" tree_arbitrary (fun tree ->
        let s = Xml_serializer_oracle.to_string tree in
        let reparsed = Xml_parser.parse_root s in
        normalize_tree reparsed = normalize_tree tree);
    qt "escape/unescape identity" (Q.make Q.Gen.(string_size (int_bound 40)))
      (fun s ->
        (* arbitrary bytes are not valid XML text; restrict to ascii *)
        let s = String.map (fun c -> if Char.code c < 32 then ' ' else c) s in
        Xml_escape.unescape (Xml_escape.text s) = s);
    qt "attribute escape round trip" (Q.make text_gen) (fun s ->
        Xml_escape.unescape (Xml_escape.attribute s) = s);
  ]

let properties_dom =
  let doc_of tree = Dom.of_tree [ tree ] in
  [
    qt "clone preserves serialization" tree_arbitrary (fun tree ->
        let d = doc_of tree in
        Dom.serialize d = Dom.serialize (Dom.clone d));
    qt "document order is a total order on descendants" tree_arbitrary
      (fun tree ->
        let d = doc_of tree in
        let ns = Dom.descendants d in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let ab = Dom.compare_order a b and ba = Dom.compare_order b a in
                (ab = 0) = (ba = 0) && (ab < 0) = (ba > 0))
              ns)
          ns);
    qt "descendants are sorted by compare_order" tree_arbitrary (fun tree ->
        let d = doc_of tree in
        let rec sorted = function
          | a :: (b :: _ as rest) -> Dom.compare_order a b < 0 && sorted rest
          | _ -> true
        in
        sorted (Dom.descendants d));
    qt "string_value equals concatenated text descendants" tree_arbitrary
      (fun tree ->
        let d = doc_of tree in
        let texts =
          List.filter_map
            (fun n -> if Dom.kind n = Dom.Text then Dom.value n else None)
            (Dom.descendants d)
        in
        Dom.string_value d = String.concat "" texts);
    qt "remove detaches every child" tree_arbitrary (fun tree ->
        let d = doc_of tree in
        let root = List.hd (Dom.children d) in
        List.iter Dom.remove (Dom.children root);
        Dom.children root = []);
  ]

let int_gen = Q.Gen.int_range (-1000000) 1000000

let properties_atomic =
  [
    qt "integer cast round trips through string" (Q.make int_gen) (fun i ->
        A.cast ~target:A.T_integer (A.String (A.to_string (A.Integer i))) = A.Integer i);
    qt "compare_value is antisymmetric on integers"
      (Q.make Q.Gen.(pair int_gen int_gen))
      (fun (a, b) ->
        let c1 = A.compare_value (A.Integer a) (A.Integer b) in
        let c2 = A.compare_value (A.Integer b) (A.Integer a) in
        (c1 > 0) = (c2 < 0) && (c1 = 0) = (c2 = 0));
    qt "add/subtract inverse on integers"
      (Q.make Q.Gen.(pair int_gen int_gen))
      (fun (a, b) ->
        A.subtract (A.add (A.Integer a) (A.Integer b)) (A.Integer b) = A.Integer a);
    qt "duration string round trip"
      (Q.make Q.Gen.(pair (int_range (-500) 500) (int_range (-100000) 100000)))
      (fun (months, secs) ->
        (* keep signs consistent: mixed-sign durations do not occur in
           the XDM value space we produce *)
        let months, secs =
          if months >= 0 then (months, abs secs) else (months, -abs secs)
        in
        let d = Xdm_duration.make ~months ~seconds:(float_of_int secs) () in
        Xdm_duration.equal d (Xdm_duration.of_string (Xdm_duration.to_string d)));
    qt "date epoch round trip"
      (Q.make
         Q.Gen.(
           triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28)))
      (fun (y, m, d) ->
        let dt = Xdm_datetime.make ~year:y ~month:m ~day:d ~tz_minutes:0 () in
        let rt = Xdm_datetime.of_epoch_seconds ~tz_minutes:0 (Xdm_datetime.to_epoch_seconds dt) in
        Xdm_datetime.equal dt rt);
    qt "date ordering matches epoch ordering"
      (Q.make
         Q.Gen.(
           pair
             (triple (int_range 1950 2050) (int_range 1 12) (int_range 1 28))
             (triple (int_range 1950 2050) (int_range 1 12) (int_range 1 28))))
      (fun ((y1, m1, d1), (y2, m2, d2)) ->
        let a = Xdm_datetime.make ~year:y1 ~month:m1 ~day:d1 () in
        let b = Xdm_datetime.make ~year:y2 ~month:m2 ~day:d2 () in
        compare
          (Xdm_datetime.to_epoch_seconds a)
          (Xdm_datetime.to_epoch_seconds b)
        = Xdm_datetime.compare a b);
  ]

(* ---------- only Xq_error leaves the data model ---------- *)

(* The numeric lexical spaces of XML Schema 1.0, as regular
   expressions, blanks around them allowed (casts trim). *)
let xsd_lexical =
  let re body = Str.regexp ("^ *\\(" ^ body ^ "\\) *$") in
  let decimal = "[+-]?\\([0-9]+\\(\\.[0-9]*\\)?\\|\\.[0-9]+\\)" in
  [
    (A.T_integer, re "[+-]?[0-9]+");
    (A.T_decimal, re decimal);
    (A.T_double, re (decimal ^ "\\([eE][+-]?[0-9]+\\)?\\|-?INF\\|NaN"));
  ]

(* at most 12 pieces, so no digit run leaves the int range *)
let numeral_gen =
  Q.Gen.(
    map (String.concat "")
      (list_size (int_bound 12)
         (oneofl
            [ "0"; "1"; "5"; "9"; "+"; "-"; "."; "e"; "E"; "x"; "_"; "INF"; "NaN"; " " ])))

(* Numerals the scanner must read as the oracle does: 1–15, 16–18 or
   19 and more significant digits, leading and trailing zeros, a point
   anywhere or none, exponents from -400 to +400, signs and blanks; the
   specials; and any of these with one character changed. *)
let scanner_numeral_gen =
  Q.Gen.(
    let digit = map (fun d -> String.make 1 (Char.chr (48 + d))) (int_bound 9) in
    let zeros =
      map (fun k -> String.make k '0') (frequency [ (3, return 0); (2, int_range 1 30) ])
    in
    let significant =
      frequency [ (6, int_range 1 15); (3, int_range 16 18); (2, int_range 19 40) ] >>= fun n ->
      map2 ( ^ ) (oneofl [ "1"; "2"; "5"; "7"; "9" ])
        (map (String.concat "") (list_repeat (n - 1) digit))
    in
    let mantissa =
      map3
        (fun lead (digits, trail) point ->
          let m = lead ^ digits ^ trail in
          match point with
          | None -> m
          | Some p ->
              let p = p mod (String.length m + 1) in
              String.sub m 0 p ^ "." ^ String.sub m p (String.length m - p))
        zeros (pair significant zeros)
        (option (int_bound 80))
    in
    let exponent =
      frequency
        [
          (2, return "");
          ( 3,
            map3 (fun e sign k -> Printf.sprintf "%s%s%d" e sign k) (oneofl [ "e"; "E" ])
              (oneofl [ ""; "+"; "-" ]) (int_bound 400) );
          ( 1,
            map (Printf.sprintf "e%s")
              (oneofl [ "0000000000000000000001"; "99999999999"; "-99999999999" ]) );
        ]
    in
    let blank = oneofl [ ""; ""; " "; "\t"; " \n"; "\r" ] in
    let numeral =
      map3
        (fun (b1, sign) (m, e) b2 -> b1 ^ sign ^ m ^ e ^ b2)
        (pair blank (oneofl [ ""; ""; "+"; "-" ]))
        (pair mantissa exponent) blank
    in
    let special =
      oneofl
        [
          "INF"; "-INF"; "NaN"; " INF "; "+INF"; "-NaN"; "inf"; "."; ""; " "; "e5"; "1e"; "1e+";
          "+"; "-"; ".e1"; "1.5.3"; "0x10"; "1_0"; "- 5"; "1 2"; "4611686018427387903";
          "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905"; "+0"; "-0";
          "-0.0e-400"; "0e999999999999"; "9007199254740993"; "999999999999999";
          "0.30000000000000004"; "2.2250738585072011e-308"; "1.7976931348623157e308";
        ]
    in
    let mutated =
      map3
        (fun s pos c ->
          let p = if s = "" then 0 else pos mod String.length s in
          String.sub s 0 p ^ c ^ String.sub s p (String.length s - p))
        numeral (int_bound 60)
        (oneofl [ "."; "e"; "-"; "+"; " "; "x"; "_"; "0"; "I" ])
    in
    frequency [ (10, numeral); (2, special); (3, mutated) ])

let all_types =
  A.
    [
      T_any_atomic; T_untyped; T_string; T_boolean; T_integer; T_decimal; T_double; T_any_uri;
      T_qname; T_date; T_time; T_date_time; T_duration; T_year_month_duration;
      T_day_time_duration;
    ]

(* the codes the data model raises *)
let data_model_codes =
  [ "XPTY0004"; "FORG0001"; "FORG0006"; "FOAR0001"; "FOAR0002"; "FOCA0003"; "FOCA0005"; "FODT0002" ]

(* Atomic values at the edges: empty and special strings, both zeros,
   the int range's ends, NaN and the infinities, durations near the
   representable range, malformed and extreme dates. *)
let edge_atomics =
  let dur months seconds = { Xdm_duration.months; seconds } in
  let lit ty s = A.cast ~target:ty (A.String s) in
  A.
    [
      String ""; String "INF"; String "-INF"; String "NaN"; String " 7 "; String "0x10";
      String "1_000"; String "1e400"; String "2008-02-30"; String "2008-06-09";
      String "P99999999999999999999Y"; String "-PT1S"; String "12:00:00"; String "a:b";
      Untyped ""; Untyped "-0"; Untyped "x"; Untyped "1.5"; Untyped "P1M";
      Integer 0; Integer 1; Integer (-1); Integer max_int; Integer min_int;
      Decimal 0.; Decimal (-0.); Decimal 0.5; Decimal Float.nan; Decimal 1e300;
      Double 0.; Double (-0.); Double Float.nan; Double Float.infinity;
      Double Float.neg_infinity; Double 1e308; Double 5e-324;
      Boolean true; Boolean false; Any_uri "http://x/"; Qname_v (Qname.make "a");
      lit T_date "2008-06-09"; lit T_date "-99999999999-01-01"; lit T_time "23:59:59Z";
      lit T_date_time "2008-06-09T12:00:00+02:00";
      Duration (dur 0 0.); Duration (dur max_int 9e15); Duration (dur min_int (-9e15));
      Year_month_duration (dur max_int 0.); Year_month_duration (dur 1 0.);
      Day_time_duration (dur 0 9e15); Day_time_duration (dur 0 1.);
    ]

(* Items: the atomics and nodes of each kind. *)
let edge_items =
  let doc = Dom.of_string {|<r a="5"><b>INF</b><!--c--></r>|} in
  let r = List.hd (Dom.children doc) in
  let nodes =
    doc :: r :: Dom.attributes r @ Dom.children r @ List.concat_map Dom.children (Dom.children r)
  in
  List.map (fun n -> Xdm_item.Node n) nodes
  @ List.map (fun a -> Xdm_item.Atomic a) edge_atomics

(* [f ()] gives a value or raises an Xq_error with a data-model code *)
let typed f =
  match f () with
  | _ -> true
  | exception Xq_error.Error e -> List.mem e.Xq_error.code data_model_codes

let data_model_suite =
  let atomic = Q.Gen.oneofl edge_atomics
  and seq = Q.Gen.(list_size (int_bound 3) (oneofl edge_items)) in
  let print_atomic a = Printf.sprintf "%s as xs:%s" (A.to_string a) (A.type_name (A.type_of a)) in
  let print_seq s = Xdm_item.to_display_string s in
  [
    qt ~count:500 ~long_factor:20
      "only Xq_error with a data-model code leaves Xdm_atomic and Xdm_item"
      (Q.make
         ~print:(fun (a, b, (s, u)) ->
           String.concat " | " [ print_atomic a; print_atomic b; print_seq s; print_seq u ])
         Q.Gen.(triple atomic atomic (pair seq seq)))
      (fun (a, b, (s, u)) ->
        let module I = Xdm_item in
        List.for_all
          (fun target ->
            typed (fun () -> A.cast ~target a)
            && A.castable ~target a
               = match A.cast ~target a with _ -> true | exception Xq_error.Error _ -> false)
          all_types
        && List.for_all
             (fun op -> typed (fun () -> op a b))
             A.[ add; subtract; multiply; divide; integer_divide; modulo ]
        && typed (fun () -> A.negate a)
        && typed (fun () -> A.compare_value a b)
        && typed (fun () -> A.equal_value a b)
        && typed (fun () -> I.effective_boolean s)
        && typed (fun () -> I.singleton s)
        && typed (fun () -> I.singleton_node s)
        && typed (fun () -> I.singleton_atomic s)
        && typed (fun () -> I.singleton_string s)
        && typed (fun () -> I.union s u)
        && typed (fun () -> I.intersect s u)
        && typed (fun () -> I.except s u)
        && List.for_all (fun it -> typed (fun () -> I.item_number it)) s);
    qt ~count:1000 ~long_factor:20
      "numeric casts and fn:number accept exactly the XSD 1.0 lexical forms"
      (Q.make ~print:(Printf.sprintf "%S") numeral_gen)
      (fun str ->
        let matches ty = Str.string_match (List.assoc ty xsd_lexical) str 0 in
        List.for_all
          (fun (ty, _) -> A.castable ~target:ty (A.String str) = matches ty)
          xsd_lexical
        && Float.is_nan (Xdm_item.item_number (Xdm_item.Atomic (A.String str)))
           = ((not (matches A.T_double)) || String.trim str = "NaN"));
    qt ~count:1000 ~long_factor:20
      "the one-pass numeral scanner reads as the two-pass oracle: forms, bits, integers"
      (Q.make ~print:(Printf.sprintf "%S") scanner_numeral_gen)
      (fun str ->
        let bits = Option.map Int64.bits_of_float in
        let real target =
          match A.cast ~target (A.String str) with
          | A.Decimal f | A.Double f -> Some f
          | _ -> assert false
          | exception Xq_error.Error { code = "FORG0001"; _ } -> None
        in
        let integer =
          match A.cast ~target:A.T_integer (A.String str) with
          | A.Integer i -> `Int i
          | _ -> assert false
          | exception Xq_error.Error { code = "FORG0001"; _ } -> `Invalid
          | exception Xq_error.Error { code = "FOCA0003"; _ } -> `Out_of_range
        in
        bits (A.double_of_lexical str) = bits (Numeral_oracle.double str)
        && bits (real A.T_double) = bits (Numeral_oracle.double str)
        && bits (real A.T_decimal) = bits (Numeral_oracle.decimal str)
        && integer = Numeral_oracle.integer str
        && bits
             (match A.double_of_string str with
             | f -> Some f
             | exception Xq_error.Error _ -> None)
           = bits (Numeral_oracle.double str));
  ]

(* ---------- XQuery printer round trips ---------- *)

let roundtrip_sources =
  [
    "1 + 2 * 3";
    "(1, 2, 3)[2]";
    "for $x at $i in (1 to 5) where $x mod 2 = 0 order by $x descending return $x + $i";
    "let $d := <a x=\"1\"><b>t</b></a> return $d//b[1]/text()";
    "some $x in (1,2) satisfies $x eq 2";
    "every $x in (1,2) satisfies $x le 2";
    "typeswitch (5) case $i as xs:integer return $i default return 0";
    "if (1 < 2) then 'y' else 'n'";
    "<r a=\"{1+1}\">x{2}</r>";
    "element foo { attribute a { 1 }, 'txt' }";
    "'42' cast as xs:integer";
    "5 castable as xs:double?";
    "(1,2) instance of xs:integer+";
    "let $d := <x/> return (insert node <a/> into $d, $d)";
    "let $d := <x><a/></x> return (delete node $d/a, $d)";
    "let $d := <v>o</v> return (replace value of node $d with 'n', string($d))";
    "let $d := <v/> return (rename node $d as 'w', name($d))";
    "copy $c := <a><b/></a> modify delete node $c/b return count($c/*)";
    "{ declare variable $x := 1; set $x := $x + 1; $x }";
    "'dog cat' ftcontains ('dog' with stemming) ftand 'cat'";
    "-(3) + +4";
    "(<a/>, <b/>) | <c/>";
    "count((1 to 10)[. mod 2 = 0])";
    "concat('a', 'b', 'c')";
    "declare function local:f($x as xs:integer) as xs:integer { $x * 2 }; local:f(21)";
    "declare variable $g := 10; $g + 1";
  ]

let printer_tests =
  let t name f = Alcotest.test_case name `Quick f in
  List.mapi
    (fun i src ->
      t (Printf.sprintf "print/parse round trip %d" i) (fun () ->
          let v1 =
            Xdm_item.to_display_string (Xquery.Engine.eval_string src)
          in
          let sctx = Xquery.Engine.default_static () in
          let prog = Xquery.Parser.parse_program sctx src in
          let printed = Xquery.Ast_printer.program_to_source prog in
          let v2 =
            try Xdm_item.to_display_string (Xquery.Engine.eval_string printed)
            with Xq_error.Error e ->
              Alcotest.failf "reprinted source failed: %s\n--- printed ---\n%s"
                (Xq_error.to_string e) printed
          in
          Alcotest.(check string) ("round trip of " ^ src) v1 v2))
    roundtrip_sources

(* ---------- random-expression optimizer equivalence ---------- *)

(* generate small pure XQuery expressions as source text *)
let rec expr_gen depth =
  Q.Gen.(
    if depth <= 0 then
      oneof
        [
          map string_of_int (int_range (-20) 20);
          oneofl [ "1.5"; "0"; "2"; "'a'"; "'xyz'"; "true()"; "false()"; "()" ];
        ]
    else
      frequency
        [
          (2, expr_gen 0);
          ( 2,
            map2
              (fun op (a, b) -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*" ])
              (pair (expr_gen (depth - 1)) (expr_gen (depth - 1))) );
          ( 1,
            map2
              (fun op (a, b) -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "="; "!="; "<"; "<=" ])
              (pair (expr_gen 0) (expr_gen 0)) );
          ( 1,
            map3
              (fun c a b -> Printf.sprintf "(if (%s) then %s else %s)" c a b)
              (expr_gen 0) (expr_gen (depth - 1)) (expr_gen (depth - 1)) );
          ( 1,
            map2
              (fun a b -> Printf.sprintf "(count((%s, %s)) > 0)" a b)
              (expr_gen 0) (expr_gen 0) );
          ( 1,
            map
              (fun a -> Printf.sprintf "(for $v in (1 to 3) return (%s))" a)
              (expr_gen (depth - 1)) );
          (1, map (fun a -> Printf.sprintf "count(//item[%s])" a) (expr_gen 0));
        ])

let doc_for_props =
  "<root><item a='1'>x</item><item a='2'>y</item><item>z</item></root>"

let eval_against_doc ~optimize src =
  let node = Xdm_item.Node (Dom.of_string doc_for_props) in
  match
    Xdm_item.to_display_string
      (Xquery.Engine.eval_string ~optimize ~context_item:node src)
  with
  | v -> Ok v
  | exception Xq_error.Error e -> Error e.Xq_error.code

let optimizer_properties =
  [
    qt ~count:300 "optimizer preserves semantics on random expressions"
      (Q.make ~print:Fun.id (expr_gen 3))
      (fun src ->
        match (eval_against_doc ~optimize:false src, eval_against_doc ~optimize:true src) with
        | Ok a, Ok b -> a = b
        | Error a, Error b -> a = b
        | _ -> false);
    qt ~count:200 "parse/print/parse is stable on random expressions"
      (Q.make ~print:Fun.id (expr_gen 3))
      (fun src ->
        let sctx = Xquery.Engine.default_static () in
        let ast = Xquery.Parser.parse_expression sctx src in
        let printed = Xquery.Ast_printer.expr_to_source ast in
        match eval_against_doc ~optimize:false printed with
        | r -> r = eval_against_doc ~optimize:false src
        | exception _ -> false);
  ]

(* ---------- fuzz: parsers fail only with their declared errors ---------- *)

let printable_gen =
  Q.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_bound 60)
         (frequency
            [
              (10, map (fun i -> Char.chr (32 + i)) (int_bound 94));
              ( 5,
                oneofl
                  [ '<'; '>'; '{'; '}'; '('; ')'; '$'; '"'; '\''; '/'; '@'; ':'; ';' ]
              );
            ])))

(* bias the fuzz toward near-XQuery shapes *)
let xqueryish_gen =
  Q.Gen.(
    frequency
      [
        (3, printable_gen);
        ( 2,
          map2
            (fun a b -> a ^ " " ^ b)
            (oneofl
               [
                 "for $x in"; "let $y :="; "if ("; "insert node"; "<a>"; "</a>";
                 "declare function"; "on event"; "typeswitch ("; "1 +"; "count(";
               ])
            printable_gen );
      ])

let fuzz_properties =
  [
    qt ~count:500 "XQuery parser only raises Xq_error on garbage"
      (Q.make ~print:Fun.id xqueryish_gen)
      (fun src ->
        match
          Xquery.Parser.parse_program (Xquery.Engine.default_static ()) src
        with
        | _ -> true
        | exception Xq_error.Error _ -> true
        | exception _ -> false);
    qt ~count:500 "XML parser only raises Parse_error on garbage"
      (Q.make ~print:Fun.id printable_gen)
      (fun src ->
        match Xml_parser.parse src with
        | _ -> true
        | exception Xml_parser.Parse_error _ -> true
        | exception _ -> false);
    qt ~count:300 "JS parser only raises Js_syntax_error on garbage"
      (Q.make ~print:Fun.id printable_gen)
      (fun src ->
        match Minijs.Js_parser.parse_program src with
        | _ -> true
        | exception Minijs.Js_lexer.Js_syntax_error _ -> true
        | exception _ -> false);
  ]

(* ---------- retry / fault model ---------- *)

(* With fault probability p < 1 and enough attempts, a retried fetch
   eventually succeeds, and its elapsed virtual time is bounded by the
   closed form: one latency per attempt plus the jittered backoff sum
   (Retry.backoff_total). *)
let retry_properties =
  let policy =
    {
      Retry.default with
      Retry.max_attempts = 2000;
      backoff_base = 0.01;
      backoff_factor = 2.;
      backoff_max = 0.5;
      jitter = 0.2;
    }
  in
  let base = 0.05 in
  let gen =
    Q.make
      ~print:(fun (p, seed) -> Printf.sprintf "p=%.3f seed=%d" p seed)
      Q.Gen.(pair (float_bound_exclusive 0.95) (int_bound 100000))
  in
  [
    qt ~count:100 "retry terminates with success and bounded virtual time" gen
      (fun (p, seed) ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create ~latency:{ Http_sim.base; per_kb = 0. } clock in
        Http_sim.register_doc http ~uri:"http://h/x.xml" "<x/>";
        Http_sim.set_faults http ~seed
          { Http_sim.no_faults with Http_sim.drop = p /. 2.; http_5xx = p /. 2. };
        let stats = Retry.make_stats () in
        let prng = Prng.create ~seed:(seed + 1) in
        let r = Retry.fetch ~policy ~prng ~stats http "http://h/x.xml" in
        let bound =
          (float_of_int stats.Retry.attempts *. base)
          +. Retry.backoff_total policy ~attempts:stats.Retry.attempts
          +. 1e-6
        in
        r.Http_sim.status = 200 && Virtual_clock.now clock <= bound);
  ]

let suite =
  properties_xml @ properties_dom @ properties_atomic @ printer_tests
  @ optimizer_properties @ fuzz_properties @ retry_properties
