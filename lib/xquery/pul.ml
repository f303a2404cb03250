open Xmlb

type primitive =
  | Insert_into of Dom.node * Dom.node list
  | Insert_first of Dom.node * Dom.node list
  | Insert_last of Dom.node * Dom.node list
  | Insert_before of Dom.node * Dom.node list
  | Insert_after of Dom.node * Dom.node list
  | Insert_attributes of Dom.node * Dom.node list
  | Delete of Dom.node
  | Replace_node of Dom.node * Dom.node list
  | Replace_value of Dom.node * string
  | Rename of Dom.node * Qname.t

type t = { mutable items : primitive list (* reversed *) }

let create () = { items = [] }
let add t p = t.items <- p :: t.items
let is_empty t = t.items = []
let length t = List.length t.items
let merge ~into t = into.items <- t.items @ into.items
let clear t = t.items <- []

let check_conflicts prims =
  let seen_rename : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen_replace : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen_replace_value : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let check table code what node =
    let id = Dom.id node in
    if Hashtbl.mem table id then
      Xq_error.raise_error code "two %s operations target the same node" what
    else Hashtbl.add table id ()
  in
  List.iter
    (function
      | Rename (n, _) -> check seen_rename Xq_error.update_conflict_rename "rename" n
      | Replace_node (n, _) ->
          check seen_replace Xq_error.update_conflict_replace "replace node" n
      | Replace_value (n, _) ->
          check seen_replace_value Xq_error.update_conflict_replace
            "replace value" n
      | Insert_into _ | Insert_first _ | Insert_last _ | Insert_before _
      | Insert_after _ | Insert_attributes _ | Delete _ ->
          ())
    prims

(* XUDY0021: once the PUL applied, no element may have two attributes
   of one name. Each element whose attributes the PUL inserts, renames,
   replaces or deletes is checked once. *)
let check_attribute_names prims =
  let owner a = if Dom.kind a = Dom.Attribute then Dom.parent a else None in
  let element = function
    | Insert_attributes (e, _) -> Some e
    | Rename (a, _) | Replace_node (a, _) | Delete a -> owner a
    | _ -> None
  in
  match List.filter_map element prims with
  | [] -> ()
  | touched ->
      let gained = Hashtbl.create 8 (* element id -> an inserted name *)
      and fate = Hashtbl.create 8 (* attribute id -> its new name; None: it goes *) in
      let gain e nodes =
        List.iter (fun n -> Option.iter (Hashtbl.add gained (Dom.id e)) (Dom.name n)) nodes
      in
      let decide a name =
        (* a deletion or replacement wins over a rename *)
        let id = Dom.id a in
        if Hashtbl.find_opt fate id <> Some None then Hashtbl.replace fate id name
      in
      List.iter
        (fun p ->
          match (p, element p) with
          | Insert_attributes (e, attrs), _ -> gain e attrs
          | Rename (a, qn), Some _ -> decide a (Some qn)
          | Replace_node (a, nodes), Some e -> decide a None; gain e nodes
          | Delete a, Some _ -> decide a None
          | _ -> ())
        prims;
      let after a = Option.value ~default:(Dom.name a) (Hashtbl.find_opt fate (Dom.id a)) in
      List.iter
        (fun e ->
          Option.iter
            (fun qn ->
              Xq_error.raise_error "XUDY0021"
                "the updates would give an element two attributes named %s" (Qname.to_string qn))
            (Qname.find_duplicate
               (List.filter_map after (Dom.attributes e) @ Hashtbl.find_all gained (Dom.id e))))
        (List.sort_uniq (fun a b -> Int.compare (Dom.id a) (Dom.id b)) touched)

(* The XQUF or XPTY error of a write the DOM refuses. [prim] is the
   primitive it refused; [None] is a write outside a pending update
   list, a set style of a node that is not an element. *)
let refused prim (r : Dom.refusal) =
  let code =
    match (prim, r) with
    | None, _ | Some _, (Dom.Child_kind _ | Dom.Cycle) -> Xq_error.type_error_code
    | Some (Replace_node _), Dom.Parentless -> "XUDY0009"
    | Some _, Dom.Parentless -> "XUDY0029"
    | Some _, Dom.Not_a_child -> "XUTY0006"
    | Some _, Dom.Owner_kind Dom.Document -> "XUTY0022"
    | Some _, (Dom.Childless _ | Dom.Owner_kind _) -> Xq_error.update_target
    | Some _, Dom.Rename_kind _ -> "XUTY0012"
    | Some _, Dom.Replacement_kind { target = Dom.Attribute; _ } -> "XUTY0011"
    | Some _, Dom.Replacement_kind _ -> "XUTY0010"
  in
  Xq_error.raise_error code "%s" (Dom.refusal_message r)

(* The DOM's check of every primitive, on the tree before the first
   write. It still holds when each primitive applies: XQUF applies every
   insert (phases a and b) before any replace (c) or delete (e), and
   what an insert links is new. *)
let check_dom prims =
  List.iter
    (fun p ->
      try
        match p with
        | Insert_into (t, ns) | Insert_last (t, ns) -> Dom.check_insert (Dom.Last_of t) ns
        | Insert_first (t, ns) -> Dom.check_insert (Dom.First_of t) ns
        | Insert_before (s, ns) -> Dom.check_insert (Dom.Before s) ns
        | Insert_after (s, ns) -> Dom.check_insert (Dom.After s) ns
        | Insert_attributes (t, _) -> Dom.check_owner t
        | Replace_node (n, rs) -> Dom.check_replace n rs
        | Rename (n, _) -> Dom.check_rename n
        | Delete _ | Replace_value _ -> ()
      with Dom.Refused r -> refused (Some p) r)
    prims

(* Application phases, audited against XQUF 1.0 §3.2.2
   upd:applyUpdates, which applies primitives in the order:
     (a) upd:insertInto, upd:insertAttributes, upd:replaceValue,
         upd:rename;
     (b) upd:insertBefore, upd:insertAfter, upd:insertIntoAsFirst,
         upd:insertIntoAsLast;
     (c) upd:replaceNode;
     (d) upd:replaceElementContent;
     (e) upd:delete;  (f) upd:put.
   Order within a phase is implementation-dependent; we use PUL order.

   Our Replace_value primitive covers both upd:replaceValue
   (attributes, text, comments, PIs — phase a) and
   upd:replaceElementContent (elements, and documents as their
   analogue — phase d), so its rank splits on the target's kind. A
   consequence required by the spec: `insert node <a/> into $d,
   replace value of node $d with "x"` discards the inserted <a/>,
   because replaceElementContent applies after insertInto. *)
let rank = function
  | Insert_into _ | Insert_attributes _ | Rename _ -> 0
  | Replace_value (n, _) -> (
      match Dom.kind n with Dom.Element | Dom.Document -> 3 | _ -> 0)
  | Insert_first _ | Insert_last _ | Insert_before _ | Insert_after _ -> 1
  | Replace_node _ -> 2
  | Delete _ -> 4

(* one DOM write per primitive, however many nodes it inserts *)
let apply_one = function
  | Insert_into (target, nodes) | Insert_last (target, nodes) ->
      Dom.insert_nodes (Dom.Last_of target) nodes
  | Insert_first (target, nodes) -> Dom.insert_nodes (Dom.First_of target) nodes
  | Insert_before (sibling, nodes) -> Dom.insert_nodes (Dom.Before sibling) nodes
  | Insert_after (sibling, nodes) -> Dom.insert_nodes (Dom.After sibling) nodes
  | Insert_attributes (target, attrs) -> Dom.append_attributes ~parent:target attrs
  | Delete n -> Dom.remove n
  | Replace_node (n, replacements) -> Dom.replace n replacements
  | Replace_value (n, v) -> Dom.set_value n v
  | Rename (n, qn) -> Dom.rename n qn

(* primitives in [prim_names] order, for their names and counters *)
let prim_index = function
  | Insert_into _ -> 0
  | Insert_first _ -> 1
  | Insert_last _ -> 2
  | Insert_before _ -> 3
  | Insert_after _ -> 4
  | Insert_attributes _ -> 5
  | Delete _ -> 6
  | Replace_node _ -> 7
  | Replace_value _ -> 8
  | Rename _ -> 9

let prim_names =
  [| "insert-into"; "insert-first"; "insert-last"; "insert-before"; "insert-after";
     "insert-attributes"; "delete"; "replace-node"; "replace-value"; "rename" |]

let prim_metrics = Array.map (fun n -> Obs.Metrics.counter ("pul.prim." ^ n)) prim_names
let phase_metric = Array.init 5 (fun i -> Obs.Metrics.counter (Printf.sprintf "pul.phase.%d" i))

let apply t =
  let prims = List.rev t.items in
  (* The list is consumed before any check: a PUL the DOM refuses, or
     that fails conflict detection (XUDY0015/0016/0017) or XUDY0021, is
     discarded with nothing applied, so a later apply on the same
     context (a page's scripts and listeners share one) does not meet it
     again. *)
  t.items <- [];
  check_dom prims;
  (* an insert of no nodes is there for the check of its target: it
     writes nothing, so it is no effect and no primitive applied *)
  let prims =
    List.filter
      (function
        | Insert_into (_, []) | Insert_first (_, []) | Insert_last (_, [])
        | Insert_before (_, []) | Insert_after (_, []) ->
            false
        | _ -> true)
      prims
  in
  check_conflicts prims;
  check_attribute_names prims;
  (* A non-empty apply during a recorded listener run is an effect: the
     run is impure and its memo must never be skipped. *)
  if prims <> [] && Footprint.recording () then Footprint.poison ();
  let apply_phases () =
    List.iter
      (fun phase ->
        let in_phase = List.filter (fun p -> rank p = phase) prims in
        Obs.Metrics.add phase_metric.(phase) (List.length in_phase);
        List.iter (fun p -> Obs.Metrics.incr prim_metrics.(prim_index p)) in_phase;
        List.iter apply_one in_phase)
      [ 0; 1; 2; 3; 4 ]
  in
  (* One observer/footprint changeset per apply: observers see the
     fully-applied post-transaction state, in mutation order. *)
  let apply_phases () = Dom.with_batch apply_phases in
  if !Obs.Trace.enabled then
    Obs.Trace.with_span
      ~attrs:[ ("primitives", string_of_int (List.length prims)) ]
      "pul.apply" apply_phases
  else apply_phases ()
