(* One tree from bytes to bytes: the parser's DOM builder and the node
   serializer, each against the path it replaced, and what they may
   allocate. *)

open Xmlb
module Q = QCheck

let t name f = Alcotest.test_case name `Quick f

(* ---------- the DOM builder against the tree path ---------- *)

(* A DOM's observable shape: node kinds, names with prefix, URI and
   local part, attributes in order, text. *)
let rec shape n =
  let name =
    match Dom.name n with
    | Some q ->
        Printf.sprintf "%s|%s|%s"
          (Option.value ~default:"-" q.Qname.prefix)
          (Option.value ~default:"-" q.Qname.uri)
          q.Qname.local
    | None -> ""
  in
  let kind =
    match Dom.kind n with
    | Dom.Document -> "D"
    | Dom.Element -> "E"
    | Dom.Attribute -> "A"
    | Dom.Text -> "T"
    | Dom.Comment -> "C"
    | Dom.Processing_instruction -> "P"
  in
  Printf.sprintf "%s(%s=%S%s%s)" kind name
    (Option.value ~default:"" (Dom.value n))
    (String.concat "" (List.map shape (Dom.attributes n)))
    (String.concat "" (List.map shape (Dom.children n)))

let outcome build src =
  match build src with
  | doc -> Ok (shape doc)
  | exception Xml_parser.Parse_error { line; col; message } -> Error (line, col, message)
  | exception e -> Error (-1, -1, Printexc.to_string e)

(* every node in document order: the node, its attributes, its
   children's subtrees *)
let rec preorder n = (n :: Dom.attributes n) @ List.concat_map preorder (Dom.children n)

(* Right after the build, before any order read: each node's key, read
   from the labels the build gave (no order read labels the tree), is
   greater than the one before it in document order, and adjacent nodes
   compare as the path comparison says. *)
let labels_ordered doc =
  let nodes = preorder doc in
  let keys, rebuilds =
    Test_dom.metric_counts [ "dom.accel.keys.rebuild" ] (fun () ->
        List.map (fun n -> Option.get (Dom.order_key n)) nodes)
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
    | _ -> true
  in
  let rec agree = function
    | a :: (b :: _ as rest) ->
        Dom.compare_order a b = Dom.compare_order_naive a b
        && Dom.compare_order b a = Dom.compare_order_naive b a
        && agree rest
    | _ -> true
  in
  rebuilds = [ 0 ] && increasing keys && agree nodes

let parse_property src =
  List.for_all
    (fun uppercase_tags ->
      let options = { Xml_parser.uppercase_tags } in
      let built = outcome (Dom.of_string ~options) src in
      built = outcome (fun s -> Dom.of_tree (Xml_parser.parse ~options s)) src
      && match built with Ok _ -> labels_ordered (Dom.of_string ~options src) | Error _ -> true)
    [ false; true ]

(* the generated documents and the page mutations of the [xmlb]
   parser differential *)
let parse_input_gen =
  Q.Gen.(
    frequency
      [
        (3, Test_xmlb.doc_gen);
        (1, Test_xmlb.doc_gen >>= Test_xmlb.mutate_gen);
        ( 3,
          int_bound (Array.length (Lazy.force Test_xmlb.real_pages) - 1) >>= fun i ->
          Test_xmlb.mutate_gen (Lazy.force Test_xmlb.real_pages).(i) );
      ])

(* the densest inputs: one node for nearly every byte *)
let dense_pages =
  let rep k s = String.concat "" (List.init k (fun _ -> s)) in
  [
    "<a" ^ rep 2_000 " b" ^ "/>";
    rep 2_000 "<a/>";
    "<a>" ^ rep 2_000 "&lt;<!---->" ^ "</a>";
    "<a>" ^ rep 2_000 "<![CDATA[]]>" ^ "</a>";
    "<a>" ^ rep 2_000 "&amp;<b/>" ^ "</a>";
    "<a/>";
    "<a b/>";
  ]

let build_tests =
  [
    QCheck_alcotest.to_alcotest
      (Q.Test.make ~count:300 ~long_factor:50
         ~name:"of_string matches of_tree of the parsed trees, and its labels are in order"
         (Q.make ~print:(fun s -> Printf.sprintf "%S" s) parse_input_gen)
         parse_property);
    t "the densest inputs keep every label below the label space, in order" (fun () ->
        List.iter
          (fun src ->
            let doc = Dom.of_string src in
            let nodes = preorder doc in
            if List.length nodes > String.length src + 1 then
              Alcotest.failf "%d nodes from %d bytes" (List.length nodes) (String.length src);
            if not (labels_ordered doc) then
              Alcotest.failf "labels out of order on %S"
                (String.sub src 0 (min 40 (String.length src)));
            List.iter
              (fun n ->
                let _, label = Option.get (Dom.order_key n) in
                if label <= 0 || label >= 1 lsl 61 then
                  Alcotest.failf "label %d out of range" label)
              nodes)
          dense_pages);
    t "a parsed tree's first probe builds buckets and no labels" (fun () ->
        let page =
          (Gen.gen_page (Random.State.make [| 9 |]) ~index:1 ~items:200 ~pooled:true).Gen.html
        in
        let doc = Dom.of_string page in
        let _, counts =
          Test_dom.metric_counts [ "dom.accel.keys.rebuild"; "dom.accel.index.rebuild" ] (fun () ->
              ignore (Dom.get_elements_by_local_name doc "li"))
        in
        Alcotest.(check (list int)) "keys and index rebuilds" [ 0; 1 ] counts);
  ]

(* ---------- allocation ---------- *)

let gen_page items =
  (Gen.gen_page (Random.State.make [| 5 |]) ~index:1 ~items ~pooled:true).Gen.html

let minor_words f =
  let before = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. before)

(* minor words per source byte from the bytes to a probed DOM *)
let build_words_per_byte page =
  let _, words =
    minor_words (fun () ->
        let doc = Dom.of_string page in
        ignore (Sys.opaque_identity (Dom.get_elements_by_local_name doc "li")))
  in
  words /. float_of_int (String.length page)

let serialize_words_per_byte page =
  let doc = Dom.of_string page in
  ignore (Dom.serialize doc);
  let out, words = minor_words (fun () -> Dom.serialize doc) in
  words /. float_of_int (String.length out)

let allocation_tests =
  [
    t "source to probed DOM: at most 4.8 minor words per byte, flat in page size" (fun () ->
        ignore (build_words_per_byte (gen_page 200));
        let small = build_words_per_byte (gen_page 200)
        and large = build_words_per_byte (gen_page 2_000) in
        if small > 4.8 || large > 4.8 || large > 1.2 *. small then
          Alcotest.failf
            "minor words per byte: %.2f at 200 items, %.2f at 2 000 (bound 4.8, and 1.2x)" small
            large);
    t "serialize allocates at most one minor word per output byte" (fun () ->
        let small = serialize_words_per_byte (gen_page 200)
        and large = serialize_words_per_byte (gen_page 2_000) in
        if small > 1.0 || large > 1.0 then
          Alcotest.failf "minor words per output byte: %.2f at 200 items, %.2f at 2 000 (bound 1.0)"
            small large);
  ]

(* ---------- the node serializer against the tree serializer ---------- *)

(* Random DOMs built through the mutators, so they hold what no parse
   gives: names with URIs and no declarations, prefixes bound to other
   URIs on the way down, default namespaces set and unset, attributes
   in namespaces, adjacent and empty texts, script and style elements
   holding markup, and documents with several children. *)
let ns_names =
  [|
    Qname.make "a";
    Qname.make "li";
    Qname.make ~uri:"urn:d" "a";
    Qname.make ~uri:"urn:e" "b";
    Qname.make ~uri:"urn:p" ~prefix:"p" "a";
    Qname.make ~uri:"urn:q" ~prefix:"p" "b";
    Qname.make ~uri:"urn:q" ~prefix:"q" "c";
    Qname.make "script";
    Qname.make "STYLE";
    Qname.make "Script";
    Qname.make ~prefix:"" "e";
  |]

let attr_names =
  [|
    Qname.make "k";
    Qname.make "id";
    Qname.make ~uri:"urn:p" ~prefix:"p" "x";
    Qname.make ~uri:"urn:r" ~prefix:"p" "y";
    Qname.make ~uri:"urn:q" ~prefix:"q" "z";
    Qname.make ~uri:"urn:a" "u";
    Qname.make "xmlns";
    Qname.make ~prefix:"xmlns" "p";
    Qname.make ~uri:Qname.Ns.xml ~prefix:"xml" "lang";
  |]

let texts = [| "t"; ""; "a < b & c > d"; " "; "\n  x\n"; "\"q\"" |]

type spec =
  | S_el of int * (int * int) list * spec list
  | S_text of int
  | S_comment of int
  | S_pi of int
  | S_attr of int * int  (* a standalone attribute *)

let spec_gen =
  Q.Gen.(
    fix
      (fun self depth ->
        let leaf =
          frequency
            [
              (4, map (fun i -> S_text i) (int_bound (Array.length texts - 1)));
              (1, map (fun i -> S_comment i) (int_bound 2));
              (1, map (fun i -> S_pi i) (int_bound 2));
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 3,
                map3
                  (fun n attrs kids -> S_el (n, attrs, kids))
                  (int_bound (Array.length ns_names - 1))
                  (list_size (int_bound 3)
                     (pair
                        (int_bound (Array.length attr_names - 1))
                        (int_bound (Array.length texts - 1))))
                  (list_size (int_bound 4) (self (depth - 1))) );
            ])
      3)

let rec build_spec = function
  | S_text i -> Dom.create_text texts.(i)
  | S_comment i -> Dom.create_comment (Printf.sprintf "c%d" i)
  | S_pi i -> Dom.create_pi ~target:"pi" (if i = 0 then "" else Printf.sprintf "d%d" i)
  | S_attr (n, v) -> Dom.create_attribute attr_names.(n) texts.(v)
  | S_el (n, attrs, kids) ->
      (* at most one attribute of a name *)
      let seen = Hashtbl.create 4 in
      let attrs =
        List.filter_map
          (fun (a, v) ->
            if Hashtbl.mem seen a then None
            else begin
              Hashtbl.add seen a ();
              Some (attr_names.(a), texts.(v))
            end)
          attrs
      in
      let el = Dom.create_element ~attrs ns_names.(n) in
      List.iter (fun k -> Dom.append_child ~parent:el (build_spec k)) kids;
      el

(* a document with several children, an element, or a standalone
   attribute *)
let dom_gen =
  Q.Gen.(
    frequency
      [
        ( 3,
          map
            (fun specs ->
              let doc = Dom.create_document () in
              List.iter (fun s -> Dom.append_child ~parent:doc (build_spec s)) specs;
              doc)
            (list_size (int_range 1 3) spec_gen) );
        (3, map build_spec spec_gen);
        ( 1,
          map2
            (fun n v -> build_spec (S_attr (n, v)))
            (int_bound (Array.length attr_names - 1))
            (int_bound (Array.length texts - 1)) );
      ])

let serialize_tests =
  [
    QCheck_alcotest.to_alcotest
      (Q.Test.make ~count:300 ~long_factor:50
         ~name:"serialize matches the tree serializer, indented and not"
         (Q.make ~print:(fun n -> Xml_serializer_oracle.serialize n) dom_gen)
         (fun n ->
           List.for_all
             (fun indent ->
               String.equal (Dom.serialize ~indent n) (Xml_serializer_oracle.serialize ~indent n))
             [ false; true ]));
    t "serialize matches the tree serializer on the pages the parser meets" (fun () ->
        Array.iter
          (fun page ->
            match Dom.of_string page with
            | doc ->
                List.iter
                  (fun indent ->
                    Alcotest.(check string)
                      "serialized"
                      (Xml_serializer_oracle.serialize ~indent doc)
                      (Dom.serialize ~indent doc))
                  [ false; true ]
            | exception Xml_parser.Parse_error _ -> ())
          (Lazy.force Test_xmlb.real_pages));
  ]

let build_suite = build_tests @ allocation_tests
let serialize_suite = serialize_tests
