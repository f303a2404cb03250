(* XML infrastructure: QNames, escaping, parser, serializer. *)

open Xmlb

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* ---------- qnames ---------- *)

let qname_tests =
  [
    t "of_string splits prefix" (fun () ->
        let q = Qname.of_string "html:div" in
        check (Alcotest.option Alcotest.string) "prefix" (Some "html") q.Qname.prefix;
        check Alcotest.string "local" "div" q.Qname.local);
    t "of_string bare name" (fun () ->
        let q = Qname.of_string "div" in
        check (Alcotest.option Alcotest.string) "prefix" None q.Qname.prefix);
    t "equality ignores prefix" (fun () ->
        let a = Qname.make ~uri:"u" ~prefix:"a" "x" in
        let b = Qname.make ~uri:"u" ~prefix:"b" "x" in
        check Alcotest.bool "equal" true (Qname.equal a b));
    t "equality distinguishes uri" (fun () ->
        let a = Qname.make ~uri:"u1" "x" and b = Qname.make ~uri:"u2" "x" in
        check Alcotest.bool "not equal" false (Qname.equal a b));
    t "clark notation" (fun () ->
        check Alcotest.string "clark" "{u}x" (Qname.to_clark (Qname.make ~uri:"u" "x")));
    t "env resolve via prefix" (fun () ->
        let env = Qname.Env.bind Qname.Env.empty ~prefix:"p" ~uri:"urn:p" in
        let q = Qname.Env.resolve env ~use_default:false (Qname.of_string "p:a") in
        check (Alcotest.option Alcotest.string) "uri" (Some "urn:p") q.Qname.uri);
    t "env default namespace applies to elements only" (fun () ->
        let env = Qname.Env.bind_default Qname.Env.empty ~uri:(Some "urn:d") in
        let e = Qname.Env.resolve env ~use_default:true (Qname.of_string "a") in
        let a = Qname.Env.resolve env ~use_default:false (Qname.of_string "a") in
        check (Alcotest.option Alcotest.string) "element" (Some "urn:d") e.Qname.uri;
        check (Alcotest.option Alcotest.string) "attr" None a.Qname.uri);
    t "unbound prefix fails" (fun () ->
        Alcotest.check_raises "failure" (Failure "XPST0081: unbound prefix \"zz\"")
          (fun () ->
            ignore (Qname.Env.resolve Qname.Env.empty ~use_default:false (Qname.of_string "zz:a"))));
    t "xml prefix predefined" (fun () ->
        let q = Qname.Env.resolve Qname.Env.empty ~use_default:false (Qname.of_string "xml:lang") in
        check (Alcotest.option Alcotest.string) "uri" (Some Qname.Ns.xml) q.Qname.uri);
  ]

(* ---------- escaping ---------- *)

let escape_tests =
  [
    t "text escaping" (fun () ->
        check Alcotest.string "escaped" "a&amp;b&lt;c&gt;d" (Xml_escape.text "a&b<c>d"));
    t "attribute escaping quotes" (fun () ->
        check Alcotest.string "escaped" "&quot;x&quot;" (Xml_escape.attribute "\"x\""));
    t "unescape predefined entities" (fun () ->
        check Alcotest.string "unescaped" "<a>&'\"" (Xml_escape.unescape "&lt;a&gt;&amp;&apos;&quot;"));
    t "unescape decimal reference" (fun () ->
        check Alcotest.string "A" "A" (Xml_escape.unescape "&#65;"));
    t "unescape hex reference" (fun () ->
        check Alcotest.string "A" "A" (Xml_escape.unescape "&#x41;"));
    t "unescape multibyte" (fun () ->
        check Alcotest.string "euro" "\xE2\x82\xAC" (Xml_escape.unescape "&#x20AC;"));
    t "unknown entity fails" (fun () ->
        match Xml_escape.unescape "&bogus;" with
        | exception Failure _ -> ()
        | s -> Alcotest.failf "expected failure, got %S" s);
    t "unescape returns input without a reference unchanged" (fun () ->
        let s = "plain <text> ; #x41" in
        check Alcotest.bool "same string" true (Xml_escape.unescape s == s));
    t "unescape copies the runs around references" (fun () ->
        check Alcotest.string "runs" "a<b&c\xC2\xA0d" (Xml_escape.unescape "a&lt;b&amp;c&nbsp;d"));
    t "xml_char follows the Char production" (fun () ->
        check (Alcotest.list Alcotest.bool) "boundaries"
          [ false; true; true; true; false; true; false; true; false; true; true; false ]
          (List.map Xml_escape.xml_char
             [ 0; 0x9; 0xA; 0xD; 0x1F; 0x20; 0xD800; 0xE000; 0xFFFE; 0x10000; 0x10FFFF; 0x110000 ]));
    t "references to non-characters fail, naming the reference" (fun () ->
        List.iter
          (fun r ->
            match Xml_escape.unescape ("x" ^ r) with
            | exception Xml_escape.Invalid_char_ref m ->
                check Alcotest.string r ("invalid character reference " ^ r) m
            | s -> Alcotest.failf "%s: expected Invalid_char_ref, got %S" r s)
          [ "&#0;"; "&#xD800;"; "&#xFFFF;"; "&#x110000;"; "&#xZZ;"; "&#99999999999999999999;"; "&#;"; "&#-1;" ]);
    t "utf8 round trip" (fun () ->
        let cps = [ 0x41; 0xE9; 0x20AC; 0x1F600 ] in
        let s = String.concat "" (List.map Xml_escape.utf8_of_code_point cps) in
        check (Alcotest.list Alcotest.int) "round trip" cps (Xml_escape.code_points s));
    t "invalid utf8 detected" (fun () ->
        match Xml_escape.code_points "\xFF\xFE" with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
  ]

(* Clean strings come back physically unchanged; escaping agrees with
   a per-character oracle. *)

let escape_oracle specials s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match List.assoc_opt c specials with
      | Some e -> Buffer.add_string buf e
      | None -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let text_specials = [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;") ]
let attr_specials = [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;"); ('"', "&quot;") ]

let escape_gen =
  QCheck.Gen.(
    let ch =
      frequency
        [
          (12, map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25));
          (2, oneofl [ '&'; '<'; '>'; '"'; '\'' ]);
          (1, return ' ');
        ]
    in
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_bound 40) ch))

let escape_oracle_tests =
  let qt name prop =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name (QCheck.make escape_gen) prop)
  in
  [
    t "clean text is physically unchanged" (fun () ->
        let s = "no specials here at all" in
        check Alcotest.bool "same string" true (Xml_escape.text s == s);
        check Alcotest.bool "attribute too" true (Xml_escape.attribute s == s));
    t "escapes still escape" (fun () ->
        check Alcotest.string "text" "a&amp;b&lt;c&gt;" (Xml_escape.text "a&b<c>");
        check Alcotest.string "attr" "say &quot;hi&quot;"
          (Xml_escape.attribute "say \"hi\""));
    qt "text matches the per-char oracle" (fun s ->
        String.equal (Xml_escape.text s) (escape_oracle text_specials s));
    qt "attribute matches the per-char oracle" (fun s ->
        String.equal (Xml_escape.attribute s) (escape_oracle attr_specials s));
  ]

(* ---------- parser ---------- *)

let parse_root = Xml_parser.parse_root

let parser_tests =
  [
    t "simple element" (fun () ->
        match parse_root "<a/>" with
        | Xml_parser.Element (n, [], []) -> check Alcotest.string "name" "a" n.Qname.local
        | _ -> Alcotest.fail "bad shape");
    t "attributes and text" (fun () ->
        match parse_root "<a x=\"1\" y='2'>hi</a>" with
        | Xml_parser.Element (_, attrs, [ Xml_parser.Text txt ]) ->
            check Alcotest.int "attrs" 2 (List.length attrs);
            check Alcotest.string "text" "hi" txt
        | _ -> Alcotest.fail "bad shape");
    t "nested elements" (fun () ->
        match parse_root "<a><b><c/></b></a>" with
        | Xml_parser.Element (_, _, [ Xml_parser.Element (_, _, [ Xml_parser.Element (c, _, []) ]) ]) ->
            check Alcotest.string "c" "c" c.Qname.local
        | _ -> Alcotest.fail "bad shape");
    t "entities in text and attributes" (fun () ->
        match parse_root "<a x=\"&lt;&amp;\">&gt;</a>" with
        | Xml_parser.Element (_, [ { Xml_parser.value; _ } ], [ Xml_parser.Text txt ]) ->
            check Alcotest.string "attr" "<&" value;
            check Alcotest.string "text" ">" txt
        | _ -> Alcotest.fail "bad shape");
    t "comment and pi" (fun () ->
        match parse_root "<a><!--c--><?target data?></a>" with
        | Xml_parser.Element (_, _, [ Xml_parser.Comment c; Xml_parser.Pi (tg, d) ]) ->
            check Alcotest.string "comment" "c" c;
            check Alcotest.string "target" "target" tg;
            check Alcotest.string "data" "data" d
        | _ -> Alcotest.fail "bad shape");
    t "cdata becomes text" (fun () ->
        match parse_root "<a><![CDATA[<raw>&]]></a>" with
        | Xml_parser.Element (_, _, [ Xml_parser.Text txt ]) ->
            check Alcotest.string "cdata" "<raw>&" txt
        | _ -> Alcotest.fail "bad shape");
    t "xml declaration and doctype are skipped" (fun () ->
        match parse_root "<?xml version=\"1.0\"?><!DOCTYPE html><a/>" with
        | Xml_parser.Element (n, _, _) -> check Alcotest.string "a" "a" n.Qname.local
        | _ -> Alcotest.fail "bad shape");
    t "default namespace declaration" (fun () ->
        match parse_root "<a xmlns=\"urn:x\"><b/></a>" with
        | Xml_parser.Element (a, _, [ Xml_parser.Element (b, _, _) ]) ->
            check (Alcotest.option Alcotest.string) "a uri" (Some "urn:x") a.Qname.uri;
            check (Alcotest.option Alcotest.string) "b uri" (Some "urn:x") b.Qname.uri
        | _ -> Alcotest.fail "bad shape");
    t "prefixed namespaces resolve" (fun () ->
        match parse_root "<p:a xmlns:p=\"urn:p\" p:x=\"1\"/>" with
        | Xml_parser.Element (a, [ attr ], _) ->
            check (Alcotest.option Alcotest.string) "el" (Some "urn:p") a.Qname.uri;
            check (Alcotest.option Alcotest.string) "attr" (Some "urn:p")
              attr.Xml_parser.name.Qname.uri
        | _ -> Alcotest.fail "bad shape");
    t "namespace scoping: inner rebind" (fun () ->
        match parse_root "<a xmlns:p=\"urn:1\"><p:b xmlns:p=\"urn:2\"/><p:c/></a>" with
        | Xml_parser.Element (_, _, [ Xml_parser.Element (b, _, _); Xml_parser.Element (c, _, _) ]) ->
            check (Alcotest.option Alcotest.string) "b" (Some "urn:2") b.Qname.uri;
            check (Alcotest.option Alcotest.string) "c" (Some "urn:1") c.Qname.uri
        | _ -> Alcotest.fail "bad shape");
    t "unclosed element fails" (fun () ->
        match parse_root "<a><b></a>" with
        | exception Xml_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    t "mismatched close tag fails" (fun () ->
        match parse_root "<a></b>" with
        | exception Xml_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    t "multiple roots rejected by parse_root" (fun () ->
        match parse_root "<a/><b/>" with
        | exception Xml_parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    t "IE uppercase quirk" (fun () ->
        let options = { Xml_parser.uppercase_tags = true } in
        match Xml_parser.parse_root ~options "<div><p/></div>" with
        | Xml_parser.Element (d, _, [ Xml_parser.Element (p, _, _) ]) ->
            check Alcotest.string "DIV" "DIV" d.Qname.local;
            check Alcotest.string "P" "P" p.Qname.local
        | _ -> Alcotest.fail "bad shape");
    t "script content is raw text" (fun () ->
        match parse_root "<html><script>if (a < b && c > d) { x(); }</script></html>" with
        | Xml_parser.Element (_, _, [ Xml_parser.Element (_, _, [ Xml_parser.Text s ]) ]) ->
            check Alcotest.string "raw" "if (a < b && c > d) { x(); }" s
        | _ -> Alcotest.fail "bad shape");
    t "script CDATA markers are stripped" (fun () ->
        match parse_root "<s><script><![CDATA[1 < 2]]></script></s>" with
        | Xml_parser.Element (_, _, [ Xml_parser.Element (_, _, [ Xml_parser.Text s ]) ]) ->
            check Alcotest.string "stripped" "1 < 2" s
        | _ -> Alcotest.fail "bad shape");
    t "a reference to a non-character is a located parse error" (fun () ->
        let fails src line col message =
          match Xml_parser.parse src with
          | exception Xml_parser.Parse_error e ->
              check
                Alcotest.(triple int int string)
                src (line, col, message) (e.line, e.col, e.message)
          | _ -> Alcotest.failf "%s: expected a parse error" src
        in
        fails "<a>&#0;</a>" 1 8 "invalid character reference &#0;";
        fails "<a>\n<b x='&#xD800;'/></a>" 2 16 "invalid character reference &#xD800;";
        fails "<a>&#xZZ;</a>" 1 10 "invalid character reference &#xZZ;";
        fails "<a>&#99999999999999999999;</a>" 1 27 "invalid character reference &#99999999999999999999;");
    t "an upper-case X is not a hex marker: the page fails at the reference" (fun () ->
        let fails src line col =
          match Xml_parser.parse src with
          | exception Xml_parser.Parse_error e ->
              check
                Alcotest.(triple int int string)
                src
                (line, col, "invalid character reference &#X41;")
                (e.line, e.col, e.message)
          | _ -> Alcotest.failf "%s: expected a parse error" src
        in
        fails "<html><body><p>&#X41;</p></body></html>" 1 22;
        fails "<html><body>\n<p title='&#X41;'>x</p></body></html>" 2 18);
    t "parse errors are located by line and column" (fun () ->
        match Xml_parser.parse "<a>\n  <b>\n</a>" with
        | exception Xml_parser.Parse_error e ->
            check Alcotest.(pair int int) "position" (3, 5) (e.line, e.col);
            check Alcotest.string "message" "mismatched close tag </a>, expected </b>" e.message
        | _ -> Alcotest.fail "expected a parse error");
    t "boolean attribute without value" (fun () ->
        match parse_root "<input disabled/>" with
        | Xml_parser.Element (_, [ { Xml_parser.name; value } ], _) ->
            check Alcotest.string "name" "disabled" name.Qname.local;
            check Alcotest.string "value" "disabled" value
        | _ -> Alcotest.fail "bad shape");
  ]

(* ---------- serializer ---------- *)

let roundtrip src = Dom.serialize (Dom.of_string src)

let serializer_tests =
  [
    t "simple round trip" (fun () ->
        check Alcotest.string "rt" "<a x=\"1\"><b>hi</b></a>" (roundtrip "<a x=\"1\"><b>hi</b></a>"));
    t "self-closing normalization" (fun () ->
        check Alcotest.string "rt" "<a/>" (roundtrip "<a></a>"));
    t "escapes in output" (fun () ->
        check Alcotest.string "rt" "<a>&lt;&amp;&gt;</a>" (roundtrip "<a>&lt;&amp;&gt;</a>"));
    t "script body stays raw" (fun () ->
        check Alcotest.string "rt" "<script>a < b</script>" (roundtrip "<script>a < b</script>"));
    t "indentation" (fun () ->
        let s = Dom.serialize ~indent:true (Dom.of_string "<a><b/><c/></a>") in
        check Alcotest.bool "has newline" true (String.contains s '\n'));
    t "namespace declarations are regenerated on output" (fun () ->
        (* constructed names carry URIs but no literal xmlns attrs *)
        let el =
          Xml_parser.Element
            ( Qname.make ~uri:"urn:n" ~prefix:"p" "root",
              [ { Xml_parser.name = Qname.make ~uri:"urn:a" ~prefix:"q" "x"; value = "1" } ],
              [ Xml_parser.Element (Qname.make ~uri:"urn:n" ~prefix:"p" "kid", [], []) ] )
        in
        let out = Dom.serialize (Dom.of_tree [ el ]) in
        check Alcotest.bool "xmlns:p" true
          (let re = Str.regexp ".*xmlns:p=\"urn:n\".*" in
           Str.string_match re out 0);
        check Alcotest.bool "xmlns:q" true
          (let re = Str.regexp ".*xmlns:q=\"urn:a\".*" in
           Str.string_match re out 0);
        (* declarations are not repeated on the child *)
        check Alcotest.bool "child undecorated" true
          (let re = Str.regexp ".*<p:kid/>.*" in
           Str.string_match re out 0);
        (* and the round trip preserves the URIs *)
        match Xml_parser.parse_root out with
        | Xml_parser.Element (n, [ a ], [ Xml_parser.Element (k, _, _) ]) ->
            check (Alcotest.option Alcotest.string) "root uri" (Some "urn:n") n.Qname.uri;
            check (Alcotest.option Alcotest.string) "attr uri" (Some "urn:a")
              a.Xml_parser.name.Qname.uri;
            check (Alcotest.option Alcotest.string) "kid uri" (Some "urn:n") k.Qname.uri
        | _ -> Alcotest.fail "bad reparse shape");
    t "default namespace regenerated" (fun () ->
        let el = Xml_parser.Element (Qname.make ~uri:"urn:d" "plain", [], []) in
        check Alcotest.string "xmlns" "<plain xmlns=\"urn:d\"/>"
          (Dom.serialize (Dom.of_tree [ el ])));
    t "namespaced dom round trip through xquery constructor" (fun () ->
        let r =
          Xquery.Engine.eval_string
            "declare namespace p = 'urn:pp'; <p:a><p:b/></p:a>"
        in
        match r with
        | [ Xdm_item.Node n ] ->
            let out = Dom.serialize n in
            let doc = Dom.of_string out in
            let b = List.hd (Dom.get_elements_by_local_name doc "b") in
            check (Alcotest.option Alcotest.string) "uri preserved" (Some "urn:pp")
              (Option.get (Dom.name b)).Qname.uri
        | _ -> Alcotest.fail "expected one node");
    t "double parse is stable" (fun () ->
        let once = roundtrip "<a p='1'>t<b/><!--c--></a>" in
        check Alcotest.string "stable" once (roundtrip once));
  ]

(* ---------- differential: the parser against the oracle ---------- *)

module Q = QCheck

(* A parse's observable result: the tree, or the error with its
   position; any other exception is recorded by name. *)
let outcome parse src =
  match parse src with
  | trees -> Ok trees
  | exception Xml_parser.Parse_error { line; col; message } -> Error (line, col, message)
  | exception e -> Error (-1, -1, Printexc.to_string e)

(* Documents from fragments that exercise every construct and its
   failure modes: namespaces bound and unbound, references good and
   bad, raw script text with mixed-case close tags, unterminated
   constructs. Failing fragments are rare enough that most documents
   parse or fail late, so the constructs after them are compared too. *)
let doc_gen =
  Q.Gen.(
    let rare good bad = frequency [ (12, oneofl good); (1, oneofl bad) ] in
    let name =
      frequency
        [
          ( 3,
            rare
              [ "a"; "b"; "li"; "p:a"; "q:b"; "x-y.z"; "_n"; "\xC3\xA9"; "A"; "Li" ]
              [ "xmlns"; "p:"; "z:a" ] );
          (* many short names sharing prefixes *)
          (1, string_size ~gen:(oneofl [ 'a'; 'j'; 'B' ]) (int_range 1 3));
        ]
    in
    let space = oneofl [ ""; " "; "\n"; "\t"; " \r\n " ] in
    let value =
      rare
        [ "v"; ""; "urn:x"; "&amp;"; "&#65;"; "a&lt;b"; "&#x1F600;"; "&#9;"; "\n"; "a&quot;b" ]
        [ "&#0;"; "&#xD800;"; "&#xZZ;"; "&#99999999999999999999;"; "&bogus;"; "a&b"; "&#;"; "<" ]
    in
    let attr =
      frequency
        [
          (6, map3 (fun n v q -> Printf.sprintf " %s=%c%s%c" n q v q) name value (oneofl [ '"'; '\'' ]));
          (1, map (fun n -> " " ^ n) name);
          ( 2,
            oneofl
              [ " xmlns=\"urn:d\""; " xmlns=\"\""; " xmlns:p=\"urn:p\""; " xmlns:q='urn:q'"; " id = 'i'" ] );
        ]
    in
    let text =
      rare
        [ "hello"; " "; "\n  "; "&lt;"; "&#65;"; "x;y"; "]]>"; ">"; "&nbsp;"; "\xE2\x82\xAC" ]
        [ "&#0;"; "&#xFFFE;"; "&"; "&gt" ]
    in
    let misc =
      rare
        [
          "<!--c-->"; "<!-- a\nb -->"; "<![CDATA[x<y&]]>"; "<?t data?>"; "<?xml version=\"1.0\"?>";
          "<?XmL x?>"; "<!DOCTYPE html>";
        ]
        [ "<!--open"; "<![CDATA[open"; "<!doctype x"; "</a>"; "<"; "<>"; "</>"; "<!x>" ]
    in
    let raw_body =
      oneofl [ ""; " \012 "; "a < b && c"; "<![CDATA[x]]>"; "<![CD]]>ATA[y"; "</scr"; "&amp;"; "\n" ]
    in
    let raw_element =
      oneofl [ "script"; "style" ] >>= fun tag ->
      let case = oneofl [ Fun.id; String.uppercase_ascii; String.capitalize_ascii ] in
      map3 (fun o body c -> Printf.sprintf "<%s>%s</%s >" (o tag) body (c tag)) case raw_body
        (frequency [ (8, case); (1, return (fun _ -> "scrip")) ])
    in
    let element =
      fix
        (fun self depth ->
          let leaf = frequency [ (3, text); (1, misc) ] in
          if depth = 0 then leaf
          else
            frequency
              [
                (3, leaf);
                ( 4,
                  name >>= fun n ->
                  list_size (int_bound 3) attr >>= fun attrs ->
                  space >>= fun sp ->
                  list_size (int_bound 4) (self (depth - 1)) >>= fun kids ->
                  frequency [ (12, return n); (1, name); (2, return (String.uppercase_ascii n)) ]
                  >>= fun close ->
                  frequency
                    [
                      ( 8,
                        return
                          (Printf.sprintf "<%s%s%s>%s</%s%s>" n (String.concat "" attrs) sp
                             (String.concat "" kids) close sp) );
                      (3, return (Printf.sprintf "<%s%s%s/>" n (String.concat "" attrs) sp));
                      ( 1,
                        return (Printf.sprintf "<%s%s>%s" n (String.concat "" attrs) (String.concat "" kids))
                      );
                    ] );
                (1, raw_element);
              ])
        3
    in
    (* most documents bind the prefixes their names use *)
    frequency
      [
        (3, map (Printf.sprintf "<r xmlns:p=\"urn:p\" xmlns:q=\"urn:q\">%s</r>") element);
        (1, element);
      ])

(* The pages the parser meets: the end-to-end benchmark's page-load and
   click pages, the scenario pages, and the pages written out in
   [examples/] (read from the source tree, from the repository root or
   from the test's build directory). *)
let example_pages =
  lazy
    (let dir = List.find Sys.file_exists [ "examples"; "../examples" ] in
     let literals src =
       let rec go i acc =
         match Str.search_forward (Str.regexp_string "{|") src i with
         | exception Not_found -> acc
         | j -> (
             match Str.search_forward (Str.regexp_string "|}") src j with
             | exception Not_found -> acc
             | k ->
                 let lit = String.sub src (j + 2) (k - j - 2) in
                 go (k + 2) (if String.length lit > 0 && lit.[0] = '<' then lit :: acc else acc))
       in
       go 0 []
     in
     let pages =
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".ml")
       |> List.concat_map (fun f ->
              literals (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
     in
     if pages = [] then failwith "no page literals found in examples/";
     pages)

let real_pages =
  lazy
    (let st = Random.State.make [| 7 |] in
     let gen_pages =
       List.init 8 (fun index ->
           (Gen.gen_page st ~index ~items:(1 + (index * 7)) ~pooled:(index mod 2 = 0)).Gen.html)
     in
     let clock = Virtual_clock.create () in
     let http = Http_sim.create clock in
     Array.of_list
       (gen_pages
       @ [
           (Gen.click_input ~seed:11 ~ops:10).Gen.html;
           Scenarios.shop_xquery_page;
           Scenarios.mult_table_js_page 4;
           Scenarios.mult_table_xquery_page 4;
           Scenarios.setup_mashup http;
           Scenarios.setup_suggest http;
         ]
       @ Lazy.force example_pages))

(* 1-4 byte edits: a byte replaced, a span deleted or duplicated, a
   markup byte inserted *)
let mutate_gen src =
  Q.Gen.(
    let markup = oneofl [ '<'; '>'; '&'; ';'; '"'; '\''; '/'; '\n'; ':'; '='; '!'; '?'; '-'; ']'; '#'; 'x'; '\000' ] in
    let edit s =
      let n = String.length s in
      if n = 0 then map (String.make 1) markup
      else
        int_bound (n - 1) >>= fun i ->
        int_bound (min 16 (n - i)) >>= fun len ->
        markup >>= fun c ->
        oneofl
          [
            String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1);
            String.sub s 0 i ^ String.sub s (i + len) (n - i - len);
            String.sub s 0 (i + len) ^ String.sub s i (n - i);
            String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
          ]
    in
    int_range 1 4 >>= fun k ->
    let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
    go k src)

let input_gen =
  Q.Gen.(
    frequency
      [
        (3, doc_gen);
        (1, doc_gen >>= mutate_gen);
        ( 3,
          int_bound (Array.length (Lazy.force real_pages) - 1) >>= fun i ->
          mutate_gen (Lazy.force real_pages).(i) );
      ])

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (Q.Test.make ~count:300 ~long_factor:50
         ~name:"the parser matches the oracle in trees and in errors"
         (Q.make ~print:(fun s -> Printf.sprintf "%S" s) input_gen)
         (fun src ->
           List.for_all
             (fun uppercase_tags ->
               let options = { Xml_parser.uppercase_tags } in
               outcome (Xml_parser.parse ~options) src
               = outcome (Xml_parser_oracle.parse ~options) src)
             [ false; true ]));
  ]

(* ---------- allocation ---------- *)

(* Words allocated per input byte by a parse, counted after a minor
   collection as minor + major - promoted: a copy of the page made per
   script goes straight to the major heap, which minor words miss. *)
let words_per_byte src =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (Xml_parser.parse src));
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int (String.length src)

let allocation_tests =
  [
    t "a parse allocates the same per byte with 20 scripts as with 1" (fun () ->
        let page = (Gen.gen_page (Random.State.make [| 5 |]) ~index:1 ~items:2_000 ~pooled:true).Gen.html in
        let head = String.index page '\n' + 1 in
        let script = Printf.sprintf "<script type=\"text/xquery\">%s</script>\n" (Gen.summary_script ~cat:1 ~above:5 ~label:"x") in
        let twenty =
          String.sub page 0 head
          ^ String.concat "" (List.init 19 (fun _ -> script))
          ^ String.sub page head (String.length page - head)
        in
        ignore (words_per_byte page);
        let ratio = words_per_byte twenty /. words_per_byte page in
        if ratio > 1.2 then
          Alcotest.failf "words per byte with 20 scripts / with 1 = %.2f (bound 1.2)" ratio);
  ]

(* ---------- the ablation record ---------- *)

let ablation_tests =
  [
    t "with_ restores the previous value when its thunk raises" (fun () ->
        let before = Ablation.fields Ablation.current in
        Ablation.with_ { Ablation.current with join_planning = false } (fun () ->
            let outer = Ablation.fields Ablation.current in
            (match
               Ablation.with_
                 { Ablation.current with acceleration = false; incremental = false }
                 (fun () -> failwith "thunk raised")
             with
            | () -> Alcotest.fail "the thunk's exception was swallowed"
            | exception Failure _ -> ());
            check
              Alcotest.(list (pair string bool))
              "inner scope restored the outer value, not the defaults" outer
              (Ablation.fields Ablation.current));
        check
          Alcotest.(list (pair string bool))
          "outer scope restored" before
          (Ablation.fields Ablation.current));
  ]

let suite =
  qname_tests @ escape_tests @ escape_oracle_tests @ parser_tests @ serializer_tests @ allocation_tests
  @ differential_tests @ ablation_tests
