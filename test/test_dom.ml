(* DOM: construction, navigation, order, mutation, observers, events. *)

open Xmlb

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let qn = Qname.make

let sample () =
  Dom.of_string "<root><a id=\"1\">x</a><b id=\"2\"><c/>y</b><a id=\"3\"/></root>"

let root_el doc = List.hd (Dom.children doc)

let construction_tests =
  [
    t "of_string builds a document" (fun () ->
        let doc = sample () in
        check Alcotest.bool "document" true (Dom.kind doc = Dom.Document);
        check Alcotest.int "one root" 1 (List.length (Dom.children doc)));
    t "kinds" (fun () ->
        check Alcotest.bool "el" true (Dom.kind (Dom.create_element (qn "a")) = Dom.Element);
        check Alcotest.bool "text" true (Dom.kind (Dom.create_text "t") = Dom.Text);
        check Alcotest.bool "attr" true (Dom.kind (Dom.create_attribute (qn "a") "v") = Dom.Attribute);
        check Alcotest.bool "comment" true (Dom.kind (Dom.create_comment "c") = Dom.Comment);
        check Alcotest.bool "pi" true (Dom.kind (Dom.create_pi ~target:"t" "d") = Dom.Processing_instruction));
    t "ids are unique and increasing" (fun () ->
        let a = Dom.create_element (qn "a") in
        let b = Dom.create_element (qn "b") in
        check Alcotest.bool "increasing" true (Dom.id b > Dom.id a));
    t "element with attrs" (fun () ->
        let el = Dom.create_element ~attrs:[ (qn "x", "1"); (qn "y", "2") ] (qn "a") in
        check (Alcotest.option Alcotest.string) "x" (Some "1") (Dom.attribute el (qn "x"));
        check Alcotest.int "count" 2 (List.length (Dom.attributes el)));
    t "clone is deep and fresh" (fun () ->
        let doc = sample () in
        let copy = Dom.clone doc in
        check Alcotest.string "same serialization" (Dom.serialize doc) (Dom.serialize copy);
        check Alcotest.bool "different identity" false (Dom.equal doc copy);
        (* mutating the copy leaves the original unchanged *)
        Dom.append_child ~parent:(root_el copy) (Dom.create_text "zzz");
        check Alcotest.bool "original untouched" false
          (String.equal (Dom.serialize doc) (Dom.serialize copy)));
  ]

let navigation_tests =
  [
    t "string_value concatenates descendant text" (fun () ->
        check Alcotest.string "sv" "xy" (Dom.string_value (sample ())));
    t "string_value skips comments and PIs" (fun () ->
        let d = Dom.of_string "<a>1<!--no--><?p no?><b>2</b></a>" in
        check Alcotest.string "sv" "12" (Dom.string_value d));
    t "descendants in document order" (fun () ->
        let doc = sample () in
        let names =
          List.filter_map
            (fun n -> Option.map (fun q -> q.Qname.local) (Dom.name n))
            (Dom.descendants doc)
        in
        check (Alcotest.list Alcotest.string) "order" [ "root"; "a"; "b"; "c"; "a" ] names);
    t "ancestors nearest first" (fun () ->
        let doc = sample () in
        let c = List.hd (Dom.get_elements_by_local_name doc "c") in
        let locals =
          List.map
            (fun n ->
              match Dom.name n with Some q -> q.Qname.local | None -> "#doc")
            (Dom.ancestors c)
        in
        check (Alcotest.list Alcotest.string) "ancestors" [ "b"; "root"; "#doc" ] locals);
    t "siblings" (fun () ->
        let doc = sample () in
        let b = List.hd (Dom.get_elements_by_local_name doc "b") in
        check Alcotest.int "following" 1 (List.length (Dom.following_siblings b));
        check Alcotest.int "preceding" 1 (List.length (Dom.preceding_siblings b)));
    t "compare_order follows document order" (fun () ->
        let doc = sample () in
        match Dom.get_elements_by_local_name doc "a" with
        | [ a1; a3 ] ->
            check Alcotest.bool "a1 < a3" true (Dom.compare_order a1 a3 < 0);
            check Alcotest.bool "a3 > a1" true (Dom.compare_order a3 a1 > 0);
            check Alcotest.int "self" 0 (Dom.compare_order a1 a1)
        | _ -> Alcotest.fail "expected two a elements");
    t "attributes order before children" (fun () ->
        let doc = sample () in
        let a1 = List.hd (Dom.get_elements_by_local_name doc "a") in
        let attr = List.hd (Dom.attributes a1) in
        let text = List.hd (Dom.children a1) in
        check Alcotest.bool "attr < text" true (Dom.compare_order attr text < 0);
        check Alcotest.bool "el < attr" true (Dom.compare_order a1 attr < 0));
    t "is_ancestor" (fun () ->
        let doc = sample () in
        let c = List.hd (Dom.get_elements_by_local_name doc "c") in
        check Alcotest.bool "doc ancestor of c" true (Dom.is_ancestor ~ancestor:doc c);
        check Alcotest.bool "c not ancestor of doc" false (Dom.is_ancestor ~ancestor:c doc));
    t "get_element_by_id" (fun () ->
        let doc = sample () in
        match Dom.get_element_by_id doc "2" with
        | Some el ->
            check Alcotest.string "b" "b" (Option.get (Dom.name el)).Qname.local
        | None -> Alcotest.fail "not found");
    t "root of detached node is itself" (fun () ->
        let el = Dom.create_element (qn "solo") in
        check Alcotest.bool "self" true (Dom.equal el (Dom.root el)));
  ]

let mutation_tests =
  [
    t "append_child sets parent" (fun () ->
        let p = Dom.create_element (qn "p") in
        let c = Dom.create_text "t" in
        Dom.append_child ~parent:p c;
        check Alcotest.bool "parent" true
          (match Dom.parent c with Some x -> Dom.equal x p | None -> false));
    t "insert_first" (fun () ->
        let p = Dom.of_string "<p><a/></p>" in
        let p = root_el p in
        Dom.insert_first ~parent:p (Dom.create_element (qn "z"));
        check Alcotest.string "first" "z"
          (Option.get (Dom.name (List.hd (Dom.children p)))).Qname.local);
    t "insert_before and after" (fun () ->
        let doc = Dom.of_string "<p><mid/></p>" in
        let mid = List.hd (Dom.get_elements_by_local_name doc "mid") in
        Dom.insert_before ~sibling:mid (Dom.create_element (qn "pre"));
        Dom.insert_after ~sibling:mid (Dom.create_element (qn "post"));
        check Alcotest.string "layout" "<p><pre/><mid/><post/></p>"
          (Dom.serialize doc));
    t "remove" (fun () ->
        let doc = sample () in
        let b = List.hd (Dom.get_elements_by_local_name doc "b") in
        Dom.remove b;
        check Alcotest.int "two left" 2 (List.length (Dom.children (root_el doc)));
        check Alcotest.bool "no parent" true (Dom.parent b = None));
    t "re-append moves a node" (fun () ->
        let doc = Dom.of_string "<r><x><m/></x><y/></r>" in
        let m = List.hd (Dom.get_elements_by_local_name doc "m") in
        let y = List.hd (Dom.get_elements_by_local_name doc "y") in
        Dom.append_child ~parent:y m;
        check Alcotest.string "moved" "<r><x/><y><m/></y></r>" (Dom.serialize doc));
    t "replace with several nodes" (fun () ->
        let doc = Dom.of_string "<r><old/></r>" in
        let old = List.hd (Dom.get_elements_by_local_name doc "old") in
        Dom.replace old [ Dom.create_element (qn "n1"); Dom.create_element (qn "n2") ];
        check Alcotest.string "replaced" "<r><n1/><n2/></r>" (Dom.serialize doc));
    t "replace with empty deletes" (fun () ->
        let doc = Dom.of_string "<r><old/></r>" in
        let old = List.hd (Dom.get_elements_by_local_name doc "old") in
        Dom.replace old [];
        check Alcotest.string "gone" "<r/>" (Dom.serialize doc));
    t "set_value on text" (fun () ->
        let txt = Dom.create_text "a" in
        Dom.set_value txt "b";
        check (Alcotest.option Alcotest.string) "b" (Some "b") (Dom.value txt));
    t "set_value on element replaces children (XQUF)" (fun () ->
        let doc = Dom.of_string "<r><a/><b/></r>" in
        Dom.set_value (root_el doc) "flat";
        check Alcotest.string "text only" "<r>flat</r>" (Dom.serialize doc));
    t "rename element and attribute" (fun () ->
        let doc = Dom.of_string "<r x=\"1\"/>" in
        let r = root_el doc in
        Dom.rename r (qn "s");
        let attr = List.hd (Dom.attributes r) in
        Dom.rename attr (qn "y");
        check Alcotest.string "renamed" "<s y=\"1\"/>" (Dom.serialize doc));
    t "rename text fails" (fun () ->
        match Dom.rename (Dom.create_text "t") (qn "x") with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
    t "set_attribute replaces existing" (fun () ->
        let el = Dom.create_element ~attrs:[ (qn "x", "1") ] (qn "a") in
        Dom.set_attribute el (qn "x") "2";
        check (Alcotest.option Alcotest.string) "2" (Some "2") (Dom.attribute el (qn "x"));
        check Alcotest.int "still one" 1 (List.length (Dom.attributes el)));
    t "remove_attribute" (fun () ->
        let el = Dom.create_element ~attrs:[ (qn "x", "1") ] (qn "a") in
        Dom.remove_attribute el (qn "x");
        check Alcotest.int "none" 0 (List.length (Dom.attributes el)));
    t "cannot insert attribute as child" (fun () ->
        let p = Dom.create_element (qn "p") in
        match Dom.append_child ~parent:p (Dom.create_attribute (qn "a") "v") with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
    t "cannot give children to text" (fun () ->
        let txt = Dom.create_text "t" in
        match Dom.append_child ~parent:txt (Dom.create_text "u") with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
  ]

let observer_tests =
  let log = ref [] in
  let record tag = fun _ -> log := tag :: !log in
  [
    t "observers on one root fire in registration order" (fun () ->
        log := [];
        let doc = sample () in
        let ids = List.map (fun tag -> Dom.observe ~root:doc (record tag)) [ "a"; "b"; "c" ] in
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "t");
        check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ] (List.rev !log);
        List.iter Dom.unobserve ids);
    t "unobserving one observer leaves the other; twice is a no-op" (fun () ->
        log := [];
        let doc = sample () in
        let first = Dom.observe ~root:doc (record "first") in
        let second = Dom.observe ~root:doc (record "second") in
        Dom.unobserve first;
        Dom.unobserve first;
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "t");
        check (Alcotest.list Alcotest.string) "only second" [ "second" ] !log;
        Dom.unobserve second;
        Dom.unobserve second;
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "u");
        check (Alcotest.list Alcotest.string) "none after" [ "second" ] !log);
    t "observer on a detached node fires once it is a root" (fun () ->
        log := [];
        let doc = sample () in
        let b = List.hd (Dom.get_elements_by_local_name doc "b") in
        let id = Dom.observe ~root:b (record "b") in
        Dom.append_child ~parent:b (Dom.create_text "attached");
        check (Alcotest.list Alcotest.string) "silent while attached" [] !log;
        Dom.remove b;
        Dom.append_child ~parent:b (Dom.create_text "detached");
        check (Alcotest.list Alcotest.string) "fires as a root" [ "b" ] !log;
        Dom.unobserve id);
    t "building fresh trees invokes no observer of another root" (fun () ->
        let hits = ref 0 in
        let ids =
          List.init 1000 (fun _ ->
              Dom.observe ~root:(Dom.of_string "<r/>") (fun _ -> incr hits))
        in
        let doc = Dom.of_string "<ul><li a=\"1\">x</li><li/></ul>" in
        ignore (Dom.clone doc);
        ignore
          (Xquery.Engine.eval_string
             "<ul a='1'>{ for $i in 1 to 50 return <li>{ $i }</li> }</ul>");
        let fresh = Dom.create_element (qn "solo") in
        Dom.fill fresh ~attrs:[ Dom.create_attribute (qn "k") "v" ] [ Dom.create_text "t" ];
        Dom.append_child ~parent:fresh (Dom.create_text "u");
        check Alcotest.int "no observer invoked" 0 !hits;
        List.iter Dom.unobserve ids);
    t "children change notifies" (fun () ->
        let doc = sample () in
        let hits = ref 0 in
        let _ = Dom.observe ~root:doc (fun _ -> incr hits) in
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "t");
        check Alcotest.bool "notified" true (!hits > 0));
    t "unobserve stops notifications" (fun () ->
        let doc = sample () in
        let hits = ref 0 in
        let id = Dom.observe ~root:doc (fun _ -> incr hits) in
        Dom.unobserve id;
        Dom.append_child ~parent:(root_el doc) (Dom.create_text "t");
        check Alcotest.int "no hits" 0 !hits);
    t "observer scoped to its tree" (fun () ->
        let doc = sample () in
        let other = Dom.of_string "<other/>" in
        let hits = ref 0 in
        let id = Dom.observe ~root:doc (fun _ -> incr hits) in
        Dom.append_child ~parent:(root_el other) (Dom.create_text "t");
        check Alcotest.int "not notified" 0 !hits;
        Dom.unobserve id);
    t "value change notifies with node" (fun () ->
        let doc = sample () in
        let seen = ref None in
        let id =
          Dom.observe ~root:doc (fun m ->
              match m with Dom.Value_changed n -> seen := Some n | _ -> ())
        in
        let a = List.hd (Dom.get_elements_by_local_name doc "a") in
        Dom.set_value a "changed";
        check Alcotest.bool "saw value change" true (!seen <> None);
        Dom.unobserve id);
  ]

let event_tests =
  let fired = ref [] in
  let record tag = fun _ -> fired := tag :: !fired in
  [
    t "listener fires at target" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let _ = Dom_event.add_listener btn ~event_type:"onclick" (record "btn") in
        ignore (Dom_event.fire ~event_type:"onclick" ~target:btn ());
        check (Alcotest.list Alcotest.string) "fired" [ "btn" ] !fired);
    t "bubbling reaches ancestors in order" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><mid><btn/></mid></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let mid = List.hd (Dom.get_elements_by_local_name doc "mid") in
        let r = List.hd (Dom.get_elements_by_local_name doc "r") in
        let _ = Dom_event.add_listener r ~event_type:"onclick" (record "r") in
        let _ = Dom_event.add_listener mid ~event_type:"onclick" (record "mid") in
        let _ = Dom_event.add_listener btn ~event_type:"onclick" (record "btn") in
        ignore (Dom_event.fire ~event_type:"onclick" ~target:btn ());
        check (Alcotest.list Alcotest.string) "bubble order" [ "r"; "mid"; "btn" ] !fired);
    t "capture phase runs top-down before target" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let r = List.hd (Dom.get_elements_by_local_name doc "r") in
        let _ = Dom_event.add_listener r ~event_type:"ev" ~capture:true (record "r-capture") in
        let _ = Dom_event.add_listener btn ~event_type:"ev" (record "btn") in
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "order" [ "btn"; "r-capture" ] !fired);
    t "stop_propagation halts bubbling" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let r = List.hd (Dom.get_elements_by_local_name doc "r") in
        let _ =
          Dom_event.add_listener btn ~event_type:"ev" (fun e ->
              record "btn" e;
              Dom_event.stop_propagation e)
        in
        let _ = Dom_event.add_listener r ~event_type:"ev" (record "r") in
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "only btn" [ "btn" ] !fired);
    t "prevent_default reflected in dispatch result" (fun () ->
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ =
          Dom_event.add_listener btn ~event_type:"ev" (fun e -> Dom_event.prevent_default e)
        in
        check Alcotest.bool "false" false (Dom_event.fire ~event_type:"ev" ~target:btn ()));
    t "event type filters listeners" (fun () ->
        fired := [];
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ = Dom_event.add_listener btn ~event_type:"a" (record "a") in
        let _ = Dom_event.add_listener btn ~event_type:"b" (record "b") in
        ignore (Dom_event.fire ~event_type:"b" ~target:btn ());
        check (Alcotest.list Alcotest.string) "only b" [ "b" ] !fired);
    t "named listener replaces same name" (fun () ->
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ = Dom_event.add_listener btn ~event_type:"ev" ~name:"L" (fun _ -> ()) in
        let _ = Dom_event.add_listener btn ~event_type:"ev" ~name:"L" (fun _ -> ()) in
        check Alcotest.int "one listener" 1 (Dom_event.listener_count btn));
    t "remove_named_listener detaches" (fun () ->
        fired := [];
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let _ = Dom_event.add_listener btn ~event_type:"ev" ~name:"L" (record "l") in
        let removed = Dom_event.remove_named_listener btn ~event_type:"ev" ~name:"L" in
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check Alcotest.int "one removed" 1 removed;
        check (Alcotest.list Alcotest.string) "no firing" [] !fired);
    t "remove_listener by id" (fun () ->
        fired := [];
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let id = Dom_event.add_listener btn ~event_type:"ev" (record "x") in
        Dom_event.remove_listener id;
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "no firing" [] !fired);
    t "event detail carried" (fun () ->
        let doc = Dom.of_string "<btn/>" in
        let btn = root_el doc in
        let seen = ref None in
        let _ =
          Dom_event.add_listener btn ~event_type:"ev" (fun e ->
              seen := List.assoc_opt "button" e.Dom_event.detail)
        in
        ignore (Dom_event.fire ~detail:[ ("button", "1") ] ~event_type:"ev" ~target:btn ());
        check (Alcotest.option Alcotest.string) "button" (Some "1") !seen);
    t "listener survives detaching and re-inserting its node" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><a/><btn/></r>" in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let a = List.hd (Dom.get_elements_by_local_name doc "a") in
        let _ = Dom_event.add_listener btn ~event_type:"ev" (record "btn") in
        Dom.remove btn;
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        Dom.append_child ~parent:a btn;
        ignore (Dom_event.fire ~event_type:"ev" ~target:btn ());
        check (Alcotest.list Alcotest.string) "fired detached and re-inserted"
          [ "btn"; "btn" ] !fired;
        check Alcotest.int "still one listener" 1 (Dom_event.listener_count btn));
    t "clone copies no listeners" (fun () ->
        fired := [];
        let doc = Dom.of_string "<r><btn/></r>" in
        let r = root_el doc in
        let btn = List.hd (Dom.get_elements_by_local_name doc "btn") in
        let _ = Dom_event.add_listener r ~event_type:"ev" (record "r") in
        let _ = Dom_event.add_listener btn ~event_type:"ev" (record "btn") in
        let copy = Dom.clone doc in
        let copy_btn = List.hd (Dom.get_elements_by_local_name copy "btn") in
        check Alcotest.int "copied root" 0 (Dom_event.listener_count (root_el copy));
        check Alcotest.int "copied button" 0 (Dom_event.listener_count copy_btn);
        ignore (Dom_event.fire ~event_type:"ev" ~target:copy_btn ());
        check (Alcotest.list Alcotest.string) "nothing fired" [] !fired;
        check Alcotest.int "original keeps its own" 1 (Dom_event.listener_count btn));
  ]

(* ---------- one-pass builders ---------- *)

module Q = QCheck

(* the changes of the named counters over [f], with metrics on *)
let metric_counts names f =
  let prev = !Obs.Metrics.enabled in
  Obs.Metrics.enabled := true;
  let before = List.map Obs.Metrics.counter names in
  Fun.protect ~finally:(fun () -> Obs.Metrics.enabled := prev) (fun () ->
      let v = f () in
      (v, List.map2 (fun n b -> Obs.Metrics.counter n - b) names before))

(* The reference builder the one-pass builders must match: one node at
   a time through the notifying mutators. *)
let rec oracle_node = function
  | Xml_parser.Text t -> Dom.create_text t
  | Xml_parser.Comment c -> Dom.create_comment c
  | Xml_parser.Pi (target, d) -> Dom.create_pi ~target d
  | Xml_parser.Element (name, attrs, kids) ->
      let el = Dom.create_element name in
      List.iter (fun a -> Dom.set_attribute el a.Xml_parser.name a.Xml_parser.value) attrs;
      List.iter (fun k -> Dom.append_child ~parent:el (oracle_node k)) kids;
      el

let oracle_of_tree trees =
  let doc = Dom.create_document () in
  List.iter (fun tr -> Dom.append_child ~parent:doc (oracle_node tr)) trees;
  doc

(* every node in pre-order: the node, its attributes, its children *)
let rec preorder n =
  (n :: Dom.attributes n) @ List.concat_map preorder (Dom.children n)

let rec parents_consistent n =
  List.for_all
    (fun c ->
      (match Dom.parent c with Some p -> Dom.equal p n | None -> false)
      && parents_consistent c)
    (Dom.attributes n @ Dom.children n)

let rec ids_increasing = function
  | a :: (b :: _ as rest) -> Dom.id a < Dom.id b && ids_increasing rest
  | _ -> true

let builder_names = [| "a"; "b"; "li"; "div" |]

let rec builder_tree_gen depth =
  Q.Gen.(
    let leaf =
      frequency
        [
          (4, map (fun i -> Xml_parser.Text (Printf.sprintf "t%d" i)) (int_bound 9));
          (1, map (fun i -> Xml_parser.Comment (Printf.sprintf "c%d" i)) (int_bound 9));
          (1, map (fun i -> Xml_parser.Pi ("p", Printf.sprintf "d%d" i)) (int_bound 9));
        ]
    in
    if depth <= 0 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 3,
            map3
              (fun ni nattrs kids ->
                let attrs =
                  List.init nattrs (fun i ->
                      { Xml_parser.name = qn (Printf.sprintf "k%d" i);
                        value = Printf.sprintf "v%d" (ni + i) })
                in
                Xml_parser.Element
                  (qn builder_names.(ni mod Array.length builder_names), attrs, kids))
              (int_bound 9) (int_bound 3)
              (list_size (int_bound 4) (builder_tree_gen (depth - 1))) );
        ])

(* random trees are serialized and re-parsed, so the builders see what
   the parser produces (merged text, no empty text nodes) *)
let parsed_tree_arbitrary =
  Q.make ~print:Xml_serializer.to_string
    Q.Gen.(
      map
        (fun (ni, kids) ->
          Xml_parser.Element (qn builder_names.(ni mod 4), [], kids))
        (pair (int_bound 3) (list_size (int_bound 5) (builder_tree_gen 3))))

let builder_tests =
  let qt name prop =
    QCheck_alcotest.to_alcotest (Q.Test.make ~count:200 ~name parsed_tree_arbitrary prop)
  in
  [
    qt "of_tree and clone match the append_child oracle" (fun tree ->
        let trees = Xml_parser.parse (Xml_serializer.to_string tree) in
        let built = Dom.of_tree trees in
        let copy = Dom.clone built in
        let expected = Dom.serialize (oracle_of_tree trees) in
        String.equal (Dom.serialize built) expected
        && String.equal (Dom.serialize copy) expected);
    qt "built and cloned trees link every child to its container" (fun tree ->
        let built = Dom.of_tree (Xml_parser.parse (Xml_serializer.to_string tree)) in
        parents_consistent built && parents_consistent (Dom.clone built));
    qt "a clone shares no node with its source" (fun tree ->
        let built = Dom.of_tree (Xml_parser.parse (Xml_serializer.to_string tree)) in
        let copy = Dom.clone built in
        let source_ids = Hashtbl.create 64 in
        List.iter (fun n -> Hashtbl.replace source_ids (Dom.id n) ()) (preorder built);
        Dom.parent copy = None
        && List.for_all (fun c -> not (Hashtbl.mem source_ids (Dom.id c))) (preorder copy));
    qt "of_tree and clone allocate ids in pre-order" (fun tree ->
        let built = Dom.of_tree (Xml_parser.parse (Xml_serializer.to_string tree)) in
        ids_increasing (preorder built) && ids_increasing (preorder (Dom.clone built)));
    t "fill rejects a child that already has a parent" (fun () ->
        let doc = sample () in
        let el = Dom.create_element (qn "e") in
        match Dom.fill el ~attrs:[] [ root_el doc ] with
        | exception Dom.Dom_error _ ->
            check Alcotest.int "nothing adopted" 0 (List.length (Dom.children el))
        | () -> Alcotest.fail "expected Dom_error");
    t "fill rejects a node that already has children" (fun () ->
        let el = Dom.create_element (qn "e") in
        Dom.fill el ~attrs:[] [ Dom.create_text "a" ];
        match Dom.fill el ~attrs:[] [ Dom.create_text "b" ] with
        | exception Dom.Dom_error _ -> ()
        | () -> Alcotest.fail "expected Dom_error");
    t "set_value drops every old child with one bump" (fun () ->
        let doc =
          Dom.of_string
            ("<r>" ^ String.concat "" (List.init 100 (fun i -> Printf.sprintf "<i>%d</i>" i)) ^ "</r>")
        in
        let r = root_el doc in
        let old = Dom.children r in
        (* build the labels and the element buckets the write must keep *)
        ignore (Dom.compare_order doc r);
        ignore (Dom.get_elements_by_local_name doc "i");
        let writes = ref 0 in
        let _ = Dom.observe ~root:doc (fun _ -> incr writes) in
        let (), counts =
          metric_counts [ "dom.delta.nodes"; "dom.accel.index.rebuild" ] (fun () ->
              Dom.set_value r "flat";
              check Alcotest.int "index sees no <i>" 0
                (List.length (Dom.get_elements_by_local_name doc "i")))
        in
        check Alcotest.int "one write" 1 !writes;
        (* 100 <i> and their texts unlinked, one text linked, no rebuild *)
        check Alcotest.(list int) "upkeep: 201 nodes, no rebuild" [ 201; 0 ] counts;
        check Alcotest.string "content" "<r>flat</r>" (Dom.serialize doc);
        check Alcotest.bool "old children parentless" true
          (List.for_all (fun c -> Dom.parent c = None) old));
  ]

(* Allocation per node must not grow with fan-out: a builder that
   appends child by child copies the child list per append. Minor
   words are deterministic, so the bound can be tight. *)
let flat_list n =
  "<ul>" ^ String.concat "" (List.init n (fun i -> Printf.sprintf "<li>%d</li>" i)) ^ "</ul>"

let words_per_node n f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int n

let scaling_tests =
  let within name build =
    t (name ^ " allocates a flat amount per node") (fun () ->
        let small = build 1_000 in
        let ratio = build 10_000 /. small in
        if ratio > 1.2 then
          Alcotest.failf "%s: words per node at 10k / at 1k = %.2f (bound 1.2)" name ratio)
  in
  [
    within "Dom.of_tree" (fun n ->
        let trees = Xml_parser.parse (flat_list n) in
        words_per_node n (fun () -> ignore (Dom.of_tree trees)));
    within "Dom.clone" (fun n ->
        let doc = Dom.of_string (flat_list n) in
        words_per_node n (fun () -> ignore (Dom.clone doc)));
    within "an element constructor" (fun n ->
        let q = Printf.sprintf "<ul>{ for $i in 1 to %d return <li/> }</ul>" n in
        (* warm run first: the measured one pays no parse or compile *)
        ignore (Xquery.Engine.eval_string q);
        words_per_node n (fun () -> ignore (Xquery.Engine.eval_string q)));
    within "Dom.set_value on an element" (fun n ->
        let doc = Dom.of_string (flat_list n) in
        words_per_node n (fun () -> Dom.set_value (root_el doc) "flat"));
    t "attaching a listener to every button allocates a flat amount per listener"
      (fun () ->
        let attach = {|declare function local:f($evt, $obj) { () };
on event "onclick" at //button attach listener local:f|} in
        let per_listener n =
          let page () =
            let b = Xqib.Browser.create () in
            Xqib.Page.load b
              ("<html><body>"
              ^ String.concat "" (List.init n (fun i -> Printf.sprintf "<button>b%d</button>" i))
              ^ "</body></html>");
            b
          in
          (* warm run first: the measured one pays no parse or compile *)
          let warm = page () in
          ignore (Xqib.Page.run_xquery warm warm.Xqib.Browser.top_window attach);
          let b = page () in
          words_per_node n (fun () ->
              ignore (Xqib.Page.run_xquery b b.Xqib.Browser.top_window attach))
        in
        let ratio = per_listener 2_000 /. per_listener 200 in
        if ratio > 1.2 then
          Alcotest.failf "words per listener at 2000 / at 200 = %.2f (bound 1.2)" ratio);
  ]

(* Click-shaped writes: a catalogue of [items] items, plus a cart and a
   panel. [writes] XQuery updates alternate an insert as first into the
   cart and an insert into the panel; each is followed by an id probe,
   an attribute-value probe and a document-order comparison of two panel
   children, and, with [render], by a memoized render. Returns minor
   words per write, nodes and bucket entries touched by cache upkeep
   per write (relabels and copied entries included: an insert first
   into the cart lands before every catalogue [li] in the [li]
   bucket), and elements rendered per render. *)
let click_writes ?(render = false) ~items ~writes () =
  let doc =
    Dom.of_string
      ("<html><body><ul id=\"cart\"/><div id=\"panel\"/><h2>Catalogue</h2><ul id=\"catalogue\">"
      ^ String.concat ""
          (List.init items (fun i ->
               Printf.sprintf
                 "<li id=\"p%d\" cat=\"c%d\" price=\"%d\"><span>w%d</span> <button>buy</button></li>"
                 i (i mod 12) (1 + (i mod 97)) i))
      ^ "</ul></body></html>")
  in
  let ctx = Xdm_item.Node doc in
  let cart = {|insert node <li ref="x">item</li> as first into //ul[@id = "cart"]|}
  and panel = {|insert node <val>1</val> into //div[@id = "panel"]|} in
  let panel_el = Option.get (Dom.get_element_by_id doc "panel") in
  let step i =
    ignore (Xquery.Engine.eval_string ~context_item:ctx (if i mod 2 = 0 then cart else panel));
    ignore (Dom.get_element_by_id doc "cart");
    ignore (Dom.elements_by_attr_value doc ~local:"id" "panel");
    (match Dom.children panel_el with
    | first :: (_ :: _ as rest) ->
        ignore (Dom.compare_order first (List.nth rest (List.length rest - 1)))
    | _ -> ());
    if render then begin
      let text = Xqib.Renderer.render_cached doc in
      if i mod 50 = 0 && text <> Render_oracle.render Xqib.Renderer.default_options doc then
        Alcotest.failf "write %d at %d items: render_cached differs from a fresh render" i items
    end
  in
  (* warm up: compile both updates, build the caches, render once *)
  step 0;
  step 1;
  step 0;
  step 1;
  let words = Gc.minor_words () in
  let (), counts =
    metric_counts
      [ "dom.delta.nodes"; "dom.delta.relabels"; "dom.delta.copies"; "render.elements" ]
      (fun () ->
        for i = 2 to writes + 1 do
          step i
        done)
  in
  let per x = float_of_int x /. float_of_int writes in
  match counts with
  | [ nodes; relabels; copies; elements ] ->
      ( (Gc.minor_words () -. words) /. float_of_int writes,
        per (nodes + relabels + copies),
        per elements )
  | _ -> assert false

let write_scaling_tests =
  [
    t "a click-shaped write costs the same at 10 000 items as at 1 000" (fun () ->
        let words_1k, nodes_1k, _ = click_writes ~items:1_000 ~writes:1_000 () in
        let words_10k, nodes_10k, _ = click_writes ~items:10_000 ~writes:1_000 () in
        if words_10k /. words_1k > 1.5 then
          Alcotest.failf "minor words per write: %.0f at 10k / %.0f at 1k (bound 1.5)" words_10k
            words_1k;
        if nodes_10k /. nodes_1k > 1.5 then
          Alcotest.failf "nodes and entries touched per write: %.1f at 10k / %.1f at 1k (bound 1.5)"
            nodes_10k nodes_1k);
    t "a render after a click-shaped write re-renders the same elements at any size" (fun () ->
        let _, _, elements_1k = click_writes ~render:true ~items:1_000 ~writes:1_000 () in
        let _, _, elements_10k = click_writes ~render:true ~items:10_000 ~writes:1_000 () in
        check (Alcotest.float 0.) "elements rendered per render" elements_1k elements_10k);
  ]

let suite =
  construction_tests @ navigation_tests @ mutation_tests @ observer_tests @ event_tests
  @ builder_tests @ scaling_tests @ write_scaling_tests
