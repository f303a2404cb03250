(* The DOM acceleration layer (order keys, id/name indexes,
   sortedness-aware document_order) must be observationally identical
   to the naive implementations — after arbitrary mutation sequences,
   with caches built and invalidated mid-sequence. *)

open Xmlb
module Q = QCheck
module I = Xdm_item

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

let with_acceleration b f =
  let prev = Dom.acceleration_enabled () in
  Dom.set_acceleration b;
  Fun.protect ~finally:(fun () -> Dom.set_acceleration prev) f

let sign c = compare c 0

(* ---------- generators ---------- *)

let names = [| "a"; "b"; "item"; "div"; "sec"; "li"; "p"; "h1" |]

let attr_gen =
  Q.Gen.(
    map2
      (fun kind v ->
        match kind mod 6 with
        | 0 | 1 -> [ { Xml_parser.name = Qname.make "id"; value = Printf.sprintf "id%d" (v mod 7) } ]
        | 2 | 3 -> [ { Xml_parser.name = Qname.make "k"; value = Printf.sprintf "v%d" (v mod 4) } ]
        | 4 when v mod 3 = 0 ->
            [ { Xml_parser.name = Qname.make "style"; value = "display: none" } ]
        | _ -> [])
      (int_bound 9) (int_bound 9))

(* one text in ten holds a run of newlines, which a heading's rendered
   line then carries *)
let text_gen =
  Q.Gen.map
    (fun i -> Xml_parser.Text (if i = 9 then "t\n\n\n9" else Printf.sprintf "t%d" i))
    (Q.Gen.int_bound 9)

let rec tree_gen depth =
  Q.Gen.(
    if depth <= 0 then text_gen
    else
      frequency
        [
          (1, text_gen);
          ( 3,
            map3
              (fun ni attrs children ->
                Xml_parser.Element
                  (Qname.make names.(ni mod Array.length names), attrs, children))
              (int_bound 9) attr_gen
              (list_size (int_bound 3) (tree_gen (depth - 1))) );
        ])

let ops_gen =
  Q.Gen.(list_size (int_range 1 25) (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))

let scenario_gen = Q.Gen.pair (tree_gen 3) ops_gen

let scenario_arbitrary =
  Q.make
    ~print:(fun (t, ops) ->
      Printf.sprintf "%s with %d ops" (Xml_serializer.to_string t) (List.length ops))
    scenario_gen

(* ---------- mutation driver ---------- *)

(* The document and the subtrees detached from it so far: every public
   mutator of [Dom] runs on either, so a subtree can be mutated while
   detached and then put back. *)
type world = { doc : Dom.node; mutable pool : Dom.node list }

let pick l i = List.nth l (i mod List.length l)
let elements l = List.filter (fun n -> Dom.kind n = Dom.Element) l
let subtree n = n :: Dom.descendants n

let fresh_element aux =
  let el = Dom.create_element (Qname.make names.(aux mod Array.length names)) in
  if aux mod 3 = 0 then Dom.set_attribute el (Qname.make "k") (Printf.sprintf "v%d" (aux mod 4));
  if aux mod 2 = 0 then Dom.append_child ~parent:el (Dom.create_text (Printf.sprintf "n%d" (aux mod 5)));
  el

let attr_name aux = Qname.make (if aux mod 2 = 0 then "id" else "k")
let attr_value aux = if aux mod 2 = 0 then Printf.sprintf "id%d" (aux mod 7) else Printf.sprintf "v%d" (aux mod 4)

(* may [el] take an attribute named [qn] without holding two of that
   name (XQUF rejects duplicates) *)
let free_name el qn =
  not (List.exists (fun a -> Dom.name a = Some qn) (Dom.attributes el))

let apply_op w (sel, p, aux) =
  let in_doc = subtree w.doc in
  let all = in_doc @ List.concat_map subtree w.pool in
  let target = pick all p in
  let nonroot = List.filter (fun n -> Dom.parent n <> None) all in
  let els = elements all in
  let with_attr f =
    match List.concat_map Dom.attributes els with [] -> () | attrs -> f (pick attrs aux)
  in
  let detached = ref [] in
  let drop n = detached := n :: !detached in
  (try
     match sel mod 21 with
     | 0 -> Dom.append_child ~parent:target (fresh_element aux)
     | 1 -> Dom.insert_first ~parent:target (fresh_element aux)
     | 2 -> if nonroot <> [] then Dom.insert_before ~sibling:(pick nonroot aux) (Dom.create_text "ins")
     | 3 -> if nonroot <> [] then Dom.insert_after ~sibling:(pick nonroot aux) (fresh_element aux)
     | 4 ->
         if nonroot <> [] then begin
           let n = pick nonroot aux in
           Dom.remove n;
           drop n
         end
     | 5 ->
         if nonroot <> [] then begin
           let n = pick nonroot aux in
           Dom.replace n [ fresh_element aux; Dom.create_text "rep" ];
           drop n
         end
     | 6 ->
         with_attr (fun a ->
             let qn = attr_name (aux + 1) in
             match Dom.parent a with
             | Some el when free_name el qn || Dom.name a = Some qn ->
                 Dom.replace a [ Dom.create_attribute qn (attr_value aux) ]
             | _ -> ())
     | 7 ->
         let qn = Qname.make (Printf.sprintf "x%d" (aux mod 3)) in
         if els <> [] && free_name (pick els aux) qn then
           Dom.append_attribute ~parent:(pick els aux) (Dom.create_attribute qn (attr_value aux))
     | 8 -> Dom.set_attribute target (Qname.make "id") (Printf.sprintf "id%d" (aux mod 7))
     | 9 -> Dom.set_attribute target (Qname.make "k") (Printf.sprintf "v%d" (aux mod 4))
     | 10 -> Dom.remove_attribute target (attr_name aux)
     | 11 -> Dom.rename target (Qname.make names.(aux mod Array.length names))
     | 12 ->
         with_attr (fun a ->
             let qn = attr_name aux in
             match Dom.parent a with
             | Some el when free_name el qn -> Dom.rename a qn
             | _ -> ())
     | 13 ->
         (* an element with element children: they all leave *)
         let old = Dom.children target in
         Dom.set_value target (Printf.sprintf "v%d" (aux mod 4));
         List.iter drop old
     | 14 -> (
         match List.filter (fun n -> Dom.kind n = Dom.Text) all with
         | [] -> ()
         | texts -> Dom.set_value (pick texts aux) (Printf.sprintf "n%d" (aux mod 5)))
     | 15 -> with_attr (fun a -> Dom.set_value a (attr_value aux))
     | 16 ->
         (* move a subtree to a new parent, guarding against cycles *)
         if nonroot <> [] then begin
           let n = pick nonroot aux in
           let dst = pick all (p + aux) in
           if (not (Dom.equal n dst)) && not (Dom.is_ancestor ~ancestor:n dst) then
             Dom.append_child ~parent:dst n
         end
     | 17 -> (
         (* put a detached subtree back, mutated or not *)
         match w.pool with
         | [] -> ()
         | pool ->
             let n = pick pool aux in
             let dst = pick in_doc p in
             if aux mod 2 = 0 then Dom.insert_first ~parent:dst n
             else Dom.append_child ~parent:dst n)
     | 18 -> (
         (* build a detached subtree's own caches *)
         match w.pool with
         | [] -> ()
         | pool ->
             let n = pick pool aux in
             ignore (Dom.get_elements_by_local_name n "item");
             ignore (Dom.elements_by_attr_value n ~local:"k" "v1");
             ignore (Dom.elements_by_text_value n ~local:"p" "n1");
             ignore (Xqib.Renderer.render_cached n);
             (match Dom.descendants n with d :: _ -> ignore (Dom.compare_order n d) | [] -> ()))
     | 19 ->
         (* a burst at one point uses up the label gap there; a burst of
            [p] elements with k attributes and texts fills buckets past
            one chunk *)
         if Dom.kind target = Dom.Element || Dom.kind target = Dom.Document then
           for i = 1 to if aux mod 2 = 0 then 64 else 100 do
             Dom.insert_first ~parent:target
               (if aux mod 2 = 0 then Dom.create_text (Printf.sprintf "b%d" (i mod 3))
                else fresh_element ((24 * i) + 6))
           done
     | _ -> Dom.remove_attribute target (Qname.make "id")
   with Dom.Dom_error _ -> ());
  let pool = !detached @ w.pool in
  w.pool <-
    List.filteri (fun i n -> i < 4 && Dom.parent n = None && Dom.kind n <> Dom.Attribute) pool

(* Build the document, then interleave mutations with accelerated
   queries so caches are built and kept repeatedly along the way.
   Returns the mutated document. *)
let run_scenario (tree, ops) =
  let w = { doc = Dom.of_tree [ tree ]; pool = [] } in
  List.iter
    (fun op ->
      apply_op w op;
      (* probe: force cache builds between mutations *)
      let ds = Dom.descendants w.doc in
      (match ds with n :: _ -> ignore (Dom.compare_order w.doc n) | [] -> ());
      ignore (Dom.get_element_by_id w.doc "id1");
      ignore (Dom.get_elements_by_local_name w.doc "item"))
    ops;
  w.doc

(* naive full-scan oracles, independent of the Dom implementations *)
let scan_by_id doc idv =
  List.find_opt
    (fun c ->
      Dom.kind c = Dom.Element
      && match Dom.attribute_local c "id" with
         | Some v -> String.equal v idv
         | None -> false)
    (Dom.descendants doc)

let scan_by_name top local =
  let candidates =
    match Dom.kind top with
    | Dom.Element -> top :: Dom.descendants top
    | _ -> Dom.descendants top
  in
  List.filter
    (fun c ->
      Dom.kind c = Dom.Element
      && match Dom.name c with
         | Some q -> String.equal q.Qname.local local
         | None -> false)
    candidates

let node_list_equal a b =
  List.length a = List.length b && List.for_all2 Dom.equal a b

(* ---------- properties ---------- *)

let prop_keyed_compare_agrees scenario =
  with_acceleration true (fun () ->
      let doc = run_scenario scenario in
      let ns = doc :: Dom.descendants doc in
      let ns = ns @ List.concat_map Dom.attributes ns in
      (* cap the O(n^2) pair check *)
      let ns = List.filteri (fun i _ -> i < 30) ns in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              sign (Dom.compare_order a b) = sign (Dom.compare_order_naive a b))
            ns)
        ns)

let prop_index_agrees_with_scan scenario =
  with_acceleration true (fun () ->
      let doc = run_scenario scenario in
      let ids = List.init 7 (Printf.sprintf "id%d") in
      let by_id_ok =
        List.for_all
          (fun idv ->
            match (Dom.get_element_by_id doc idv, scan_by_id doc idv) with
            | None, None -> true
            | Some a, Some b -> Dom.equal a b
            | _ -> false)
          ids
      in
      let tops =
        doc
        :: List.filteri
             (fun i c -> i < 5 && Dom.kind c = Dom.Element)
             (Dom.descendants doc)
      in
      let by_name_ok =
        List.for_all
          (fun top ->
            Array.for_all
              (fun local ->
                node_list_equal
                  (Dom.get_elements_by_local_name top local)
                  (scan_by_name top local))
              names)
          tops
      in
      by_id_ok && by_name_ok)

let prop_document_order_ablation scenario =
  let doc = with_acceleration true (fun () -> run_scenario scenario) in
  let ds = Dom.descendants doc in
  let inputs =
    [
      I.of_nodes ds;
      I.of_nodes (List.rev ds);
      (* duplicates and interleaving *)
      I.of_nodes (List.rev ds @ List.filteri (fun i _ -> i mod 2 = 0) ds);
    ]
  in
  List.for_all
    (fun input ->
      let fast = with_acceleration true (fun () -> I.document_order input) in
      let naive = with_acceleration false (fun () -> I.document_order input) in
      node_list_equal
        (List.map (function I.Node n -> n | _ -> assert false) fast)
        (List.map (function I.Node n -> n | _ -> assert false) naive))
    inputs

let prop_axes_ablation scenario =
  let doc = with_acceleration true (fun () -> run_scenario scenario) in
  let run src =
    I.to_display_string
      (Xquery.Engine.eval_string ~context_item:(I.Node doc) src)
  in
  let queries =
    [
      "//item/following::*";
      "//item/preceding::*";
      "//a/following::item";
      "count(//sec/preceding::b)";
      "//div//item";
    ]
  in
  List.for_all
    (fun src ->
      let fast = with_acceleration true (fun () -> run src) in
      let naive = with_acceleration false (fun () -> run src) in
      String.equal fast naive)
    queries

(* ---------- differential: maintained caches against rebuilds ---------- *)

(* The from-scratch side: what the rebuild-on-read caches computed,
   derived here from plain tree walks. *)

(* document order: a node, its attributes, then its children *)
let ordinals doc =
  let tbl = Hashtbl.create 64 and next = ref 0 in
  let number n =
    Hashtbl.replace tbl (Dom.id n) !next;
    incr next
  in
  let rec walk n =
    number n;
    List.iter number (Dom.attributes n);
    List.iter walk (Dom.children n)
  in
  walk doc;
  tbl

let local_is local n =
  match Dom.name n with Some q -> String.equal q.Qname.local local | None -> false

(* one entry per matching attribute, like the rebuilt index *)
let oracle_attr_value top local v =
  List.concat_map
    (fun el ->
      List.filter_map
        (fun a -> if local_is local a && Dom.value a = Some v then Some el else None)
        (Dom.attributes el))
    (elements (subtree top))

(* [None] when some element of the name anywhere in the tree has element
   children: the rebuilt index could not answer then *)
let oracle_text_value doc top local v =
  let named top = List.filter (local_is local) (elements (subtree top)) in
  let flat el = not (List.exists (fun c -> Dom.kind c = Dom.Element) (Dom.children el)) in
  if not (List.for_all flat (named doc)) then None
  else Some (List.filter (fun el -> Dom.string_value el = v) (named top))

let narrow = { Xqib.Renderer.width = 20; show_hidden = true }

(* Every maintained answer equals the from-scratch one; [why] names the
   first that does not. *)
let caches_agree doc =
  let why = ref None in
  let expect label ok = if (not ok) && !why = None then why := Some label in
  let nodes = subtree doc in
  let tops = doc :: List.filteri (fun i _ -> i < 3) (elements (Dom.descendants doc)) in
  (* order *)
  let ords = ordinals doc in
  let sample =
    List.filteri (fun i _ -> i < 24) (nodes @ List.concat_map Dom.attributes nodes)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let want = sign (Hashtbl.find ords (Dom.id a) - Hashtbl.find ords (Dom.id b)) in
          expect "compare_order" (sign (Dom.compare_order a b) = want);
          expect "order_key" (sign (compare (Dom.order_key a) (Dom.order_key b)) = want))
        sample)
    sample;
  (* id and name buckets *)
  List.iter
    (fun idv ->
      expect ("id " ^ idv)
        (match
           ( Dom.get_element_by_id doc idv,
             List.find_opt
               (fun c -> Dom.kind c = Dom.Element && Dom.attribute_local c "id" = Some idv)
               nodes )
         with
        | None, None -> true
        | Some a, Some b -> Dom.equal a b
        | _ -> false))
    (List.init 7 (Printf.sprintf "id%d"));
  List.iter
    (fun top ->
      Array.iter
        (fun local ->
          expect ("name " ^ local)
            (node_list_equal (Dom.get_elements_by_local_name top local) (scan_by_name top local)))
        names)
    tops;
  (* attribute and text value buckets *)
  List.iter
    (fun top ->
      List.iter
        (fun (local, values) ->
          List.iter
            (fun v ->
              expect
                (Printf.sprintf "@%s = %s" local v)
                (match Dom.elements_by_attr_value top ~local v with
                | Some got -> node_list_equal got (oracle_attr_value top local v)
                | None -> false))
            values)
        [
          ("id", List.init 7 (Printf.sprintf "id%d"));
          ("k", List.init 4 (Printf.sprintf "v%d"));
          ("x1", [ "v1"; "id1" ]);
        ];
      List.iter
        (fun local ->
          List.iter
            (fun v ->
              expect
                (Printf.sprintf "%s = %s" local v)
                (match
                   (Dom.elements_by_text_value top ~local v, oracle_text_value doc top local v)
                 with
                | None, None -> true
                | Some got, Some want -> node_list_equal got want
                | _ -> false))
            [ "n0"; "n1"; "v2"; "t3"; "" ])
        [ "p"; "li"; "item" ])
    tops;
  (* render memos *)
  List.iter
    (fun (label, options) ->
      expect label
        (String.equal (Xqib.Renderer.render_cached ~options doc) (Render_oracle.render options doc)))
    [ ("render", Xqib.Renderer.default_options); ("narrow render", narrow) ];
  !why

(* Apply the ops, and from a step the scenario picks on compare after
   every step: before it the tree has no caches, so its writes do no
   upkeep; the first comparison builds them mid-stream, and every later
   step must keep them. *)
let prop_caches_match_rebuilds ((_, ops) as scenario) =
  with_acceleration true (fun () ->
      let tree, _ = scenario in
      let w = { doc = Dom.of_tree [ tree ]; pool = [] } in
      let start = match ops with (_, p, _) :: _ -> p mod (List.length ops + 1) | [] -> 0 in
      let failure = ref None in
      List.iteri
        (fun i op ->
          apply_op w op;
          (* the detached subtrees are trees of their own, with their
             own caches once probed *)
          if i >= start && !failure = None then
            List.iter
              (fun root ->
                if !failure = None then
                  Option.iter
                    (fun why ->
                      failure := Some (Printf.sprintf "step %d: %s in %s" i why (Dom.serialize root)))
                    (caches_agree root))
              (w.doc :: w.pool))
        ops;
      (match !failure with
      | None -> ()
      | Some m -> QCheck.Test.fail_reportf "%s" m);
      String.equal (Xqib.Renderer.render w.doc) (Render_oracle.render Xqib.Renderer.default_options w.doc))

(* ---------- deterministic cases ---------- *)

let t name f = Alcotest.test_case name `Quick f

let unit_tests =
  [
    t "order keys follow a node moved between documents" (fun () ->
        with_acceleration true (fun () ->
            let d1 = Dom.of_string "<r><a id='x'/><b/></r>" in
            let d2 = Dom.of_string "<s><c/></s>" in
            (* warm both caches *)
            ignore (Dom.get_element_by_id d1 "x");
            ignore (Dom.compare_order d2 d2);
            let a = Option.get (Dom.get_element_by_id d1 "x") in
            let s = List.hd (Dom.children d2) in
            Dom.append_child ~parent:s a;
            Alcotest.(check bool) "gone from d1" true (Dom.get_element_by_id d1 "x" = None);
            Alcotest.(check bool) "found in d2" true
              (match Dom.get_element_by_id d2 "x" with
              | Some n -> Dom.equal n a
              | None -> false);
            let c = List.hd (Dom.children d2) in
            Alcotest.(check bool) "ordered inside d2" true (Dom.compare_order c a < 0);
            Alcotest.(check int) "keyed matches naive" (sign (Dom.compare_order c a))
              (sign (Dom.compare_order_naive c a))));
    t "detached subtree is its own ordered tree" (fun () ->
        with_acceleration true (fun () ->
            let d = Dom.of_string "<r><a><b/><c/></a></r>" in
            ignore (Dom.compare_order d d);
            let a = List.hd (Dom.children (List.hd (Dom.children d))) in
            Dom.remove a;
            let b = List.nth (Dom.children a) 0 and c = List.nth (Dom.children a) 1 in
            Alcotest.(check bool) "a < b" true (Dom.compare_order a b < 0);
            Alcotest.(check bool) "b < c" true (Dom.compare_order b c < 0)));
    t "document_order still dedups under acceleration" (fun () ->
        with_acceleration true (fun () ->
            let d = Dom.of_string "<r><a/></r>" in
            let a = List.hd (Dom.children (List.hd (Dom.children d))) in
            let out = I.document_order [ I.Node a; I.Node a ] in
            Alcotest.(check int) "deduped" 1 (List.length out)));
    t "id index tracks attribute updates" (fun () ->
        with_acceleration true (fun () ->
            let d = Dom.of_string "<r><a/><b/></r>" in
            let r = List.hd (Dom.children d) in
            let a = List.nth (Dom.children r) 0 in
            Alcotest.(check bool) "absent" true (Dom.get_element_by_id d "k" = None);
            Dom.set_attribute a (Qname.make "id") "k";
            Alcotest.(check bool) "present" true
              (match Dom.get_element_by_id d "k" with
              | Some n -> Dom.equal n a
              | None -> false);
            Dom.remove_attribute a (Qname.make "id");
            Alcotest.(check bool) "absent again" true
              (Dom.get_element_by_id d "k" = None)));
    t "name index tracks renames" (fun () ->
        with_acceleration true (fun () ->
            let d = Dom.of_string "<r><a/></r>" in
            let r = List.hd (Dom.children d) in
            let a = List.hd (Dom.children r) in
            Alcotest.(check int) "one a" 1
              (List.length (Dom.get_elements_by_local_name d "a"));
            Dom.rename a (Qname.make "z");
            Alcotest.(check int) "no a" 0
              (List.length (Dom.get_elements_by_local_name d "a"));
            Alcotest.(check int) "one z" 1
              (List.length (Dom.get_elements_by_local_name d "z"))));
    t "subtree-scoped name lookup" (fun () ->
        with_acceleration true (fun () ->
            let d = Dom.of_string "<r><s><x/></s><s><x/><x/></s></r>" in
            let r = List.hd (Dom.children d) in
            let s2 = List.nth (Dom.children r) 1 in
            Alcotest.(check int) "whole doc" 3
              (List.length (Dom.get_elements_by_local_name d "x"));
            Alcotest.(check int) "second sec" 2
              (List.length (Dom.get_elements_by_local_name s2 "x"))));
  ]

let suite =
  unit_tests
  @ [
      qt "keyed compare_order agrees with naive after random mutations"
        scenario_arbitrary prop_keyed_compare_agrees;
      qt "index lookups agree with full scans after random mutations"
        scenario_arbitrary prop_index_agrees_with_scan;
      qt "document_order identical with acceleration on and off"
        scenario_arbitrary prop_document_order_ablation;
      qt ~count:60 "axis queries identical with acceleration on and off"
        scenario_arbitrary prop_axes_ablation;
      QCheck_alcotest.to_alcotest
        (Q.Test.make ~count:100 ~long_factor:50
           ~name:"maintained caches and render memos match from-scratch rebuilds"
           scenario_arbitrary prop_caches_match_rebuilds);
    ]
