(* Names are strings: Qname equality and order read the expanded name's
   strings, indexes and footprints find names first made at run time,
   and a QCheck differential holds the compiled evaluator to the
   reference on name-heavy queries (node-name keys of distinct-values
   among them). *)

open Xmlb
module I = Xdm_item
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* names no other test uses *)
let fresh_name =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "zz-fresh-%d" !c

(* ------------------------------------------------------------------ *)
(* Qname: expanded-name equality, prefix ignored; compare agrees *)

(* a small alphabet, so that equal parts are common *)
let qname_gen =
  Q.Gen.(
    let part = oneofl [ "a"; "b"; "ab" ] in
    map3
      (fun uri prefix local -> Qname.make ?uri ?prefix local)
      (opt (map (fun s -> "urn:" ^ s) part))
      (opt part) part)

let qname_pair =
  Q.make
    ~print:(fun (a, b) -> Qname.to_clark a ^ " / " ^ Qname.to_clark b)
    (Q.Gen.pair qname_gen qname_gen)

let qname_tests =
  [
    qt "equal is URI and local-part equality" qname_pair (fun (a, b) ->
        Qname.equal a b
        = (Option.equal String.equal a.Qname.uri b.Qname.uri
          && String.equal a.Qname.local b.Qname.local));
    qt "compare is 0 exactly on equal names" qname_pair (fun (a, b) ->
        (Qname.compare a b = 0) = Qname.equal a b);
  ]

(* ------------------------------------------------------------------ *)
(* Names first made at run time: index probes and footprint
   intersection behave as for names the document was parsed with *)

let runtime_name_tests =
  [
    t "index finds elements renamed to a fresh name" (fun () ->
        let fresh = fresh_name () in
        let doc = Dom.of_string "<root><a>1</a><a>2</a></root>" in
        check Alcotest.int "absent before" 0
          (List.length (Dom.get_elements_by_local_name doc fresh));
        (match Dom.get_elements_by_local_name doc "a" with
        | el :: _ -> Dom.rename el (Qname.make fresh)
        | [] -> Alcotest.fail "no a element");
        check Alcotest.int "found after rename" 1
          (List.length (Dom.get_elements_by_local_name doc fresh)));
    t "updating query creating a fresh name is queryable" (fun () ->
        let fresh = fresh_name () in
        let doc = Dom.of_string "<r><x/></r>" in
        let eval src =
          I.to_display_string (Xquery.Engine.eval_string ~context_item:(I.Node doc) src)
        in
        (* snapshot semantics: the insert applies when the first query
           finishes, the count is a second evaluation *)
        let _ = eval (Printf.sprintf "insert node <%s/> into /r" fresh) in
        check Alcotest.string "one inserted" "1" (eval (Printf.sprintf "count(//%s)" fresh)));
    t "footprint read of an unseen name catches a later write" (fun () ->
        let fresh = fresh_name () in
        let fp = Footprint.create () in
        let prev = Footprint.start fp in
        Footprint.reading_name ~root:(Footprint.watch ()) ~scope:1 fresh;
        Footprint.restore prev;
        let w = Footprint.fresh_wrec ~chain:[ 1; 2 ] in
        (* an equal string, not the same one *)
        Footprint.add_wname w (Bytes.to_string (Bytes.of_string fresh));
        check Alcotest.bool "intersects" true (Footprint.intersects fp [ w ]);
        let w2 = Footprint.fresh_wrec ~chain:[ 1; 2 ] in
        Footprint.add_wname w2 (fresh_name ());
        check Alcotest.bool "other name misses" false (Footprint.intersects fp [ w2 ]));
    t "value-index probe sees a value written after it was built" (fun () ->
        let doc = Dom.of_string "<root><item k='a'>1</item><item k='b'>2</item></root>" in
        let probe () =
          match Dom.elements_by_attr_value doc ~local:"k" "c" with
          | Some els -> List.length els
          | None -> -1
        in
        check Alcotest.int "miss" 0 (probe ());
        (match Dom.get_elements_by_local_name doc "item" with
        | el :: _ -> Dom.set_attribute el (Qname.make "k") "c"
        | [] -> Alcotest.fail "no item");
        check Alcotest.int "index sees the new value" 1 (probe ()));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: the compiled evaluator against the reference *)

let diff_doc_gen =
  Q.Gen.(
    let name = oneofl [ "alpha"; "beta"; "gamma"; "alphabet" ] in
    let item =
      map2
        (fun n (k, v) -> Printf.sprintf "<%s k='%d'>%d</%s>" n k v n)
        name
        (pair (int_bound 3) (int_bound 9))
    in
    map
      (fun items -> "<root>" ^ String.concat "" items ^ "</root>")
      (list_size (int_range 1 12) item))

let diff_query_gen =
  Q.Gen.(
    oneofl
      [
        "count(//alpha)";
        "count(/root/beta)";
        "string-join(//alpha/@k, ',')";
        "count(//alpha[@k eq '1'])";
        "count(distinct-values(for $x in /root/* return node-name($x)))";
        "string-join(for $x in /root/* order by local-name($x), \
         xs:integer($x/@k) return local-name($x), ' ')";
        "sum(for $x in //alphabet return xs:integer($x))";
        "count(//*[local-name() = 'gamma'])";
      ])

let differential_tests =
  [
    qt ~count:150 "compiled agrees with the reference evaluator"
      (Q.make
         ~print:(fun (d, q) -> d ^ " |> " ^ q)
         Q.Gen.(pair diff_doc_gen diff_query_gen))
      (fun (doc_src, query) ->
        let outcome compiled_eval =
          Ablation.with_ { Ablation.current with compiled_eval } (fun () ->
              match
                I.to_display_string
                  (Xquery.Engine.eval_string
                     ~context_item:(I.Node (Dom.of_string doc_src))
                     query)
              with
              | s -> "ok: " ^ s
              | exception Xq_error.Error e -> "err: " ^ e.Xq_error.code)
        in
        String.equal (outcome false) (outcome true));
  ]

let suite = qname_tests @ runtime_name_tests @ differential_tests
