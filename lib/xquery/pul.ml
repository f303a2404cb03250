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

let prim_metric = function
  | Insert_into _ -> "pul.prim.insert-into"
  | Insert_first _ -> "pul.prim.insert-first"
  | Insert_last _ -> "pul.prim.insert-last"
  | Insert_before _ -> "pul.prim.insert-before"
  | Insert_after _ -> "pul.prim.insert-after"
  | Insert_attributes _ -> "pul.prim.insert-attributes"
  | Delete _ -> "pul.prim.delete"
  | Replace_node _ -> "pul.prim.replace-node"
  | Replace_value _ -> "pul.prim.replace-value"
  | Rename _ -> "pul.prim.rename"

let phase_metric =
  [|
    "pul.phase.0"; "pul.phase.1"; "pul.phase.2"; "pul.phase.3"; "pul.phase.4";
  |]

let apply t =
  let prims = List.rev t.items in
  (* conflict detection (XUDY0015/0016/0017) runs against the intact
     list: a conflicting PUL raises *before* anything is discarded, so
     the caller can still inspect (or pretty-print) the rejected
     updates. Only a successful check consumes the list. *)
  check_conflicts prims;
  t.items <- [];
  (* A non-empty apply during a recorded listener run is an effect: the
     run is impure and its memo must never be skipped. *)
  if prims <> [] && Footprint.recording () then Footprint.poison ();
  let apply_phases () =
    List.iter
      (fun phase ->
        let in_phase = List.filter (fun p -> rank p = phase) prims in
        if !Obs.Metrics.enabled && in_phase <> [] then begin
          Obs.Metrics.incr ~by:(List.length in_phase) phase_metric.(phase);
          List.iter (fun p -> Obs.Metrics.incr (prim_metric p)) in_phase
        end;
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

let pp_primitive ppf p =
  let name =
    match p with
    | Insert_into _ -> "insert-into"
    | Insert_first _ -> "insert-first"
    | Insert_last _ -> "insert-last"
    | Insert_before _ -> "insert-before"
    | Insert_after _ -> "insert-after"
    | Insert_attributes _ -> "insert-attributes"
    | Delete _ -> "delete"
    | Replace_node _ -> "replace-node"
    | Replace_value _ -> "replace-value"
    | Rename _ -> "rename"
  in
  Format.pp_print_string ppf name

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_primitive)
    (List.rev t.items)
