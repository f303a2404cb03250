(* Lazy pull-cursor over XDM sequences. A cursor wraps an [item Seq.t]
   together with the static flag [sorted], which the evaluator derives
   from the expression shape: the items are distinct nodes in document
   order, so a consumer can skip the document_order sort. Cursors are
   single-shot: combinators consume the underlying Seq once. *)

module I = Xdm_item

type t = { items : I.item Seq.t; sorted : bool }

let pulls = Obs.Metrics.counter "xdm.seq.pulls"
let materializations = Obs.Metrics.counter "xdm.seq.materializations"

(* count each item delivered by a cold producer; combinators do not
   re-wrap, so a pipeline counts every source item exactly once *)
let counted s = Seq.map (fun x -> Obs.Metrics.incr pulls; x) s

let make ?(sorted = false) items = { items; sorted }
let of_seq ?sorted s = make ?sorted (counted s)

let of_node_seq ?sorted s =
  of_seq ?sorted (Seq.map (fun n -> I.Node n) s)

let of_list ?(sorted = false) l = { items = List.to_seq l; sorted }
let empty = { items = Seq.empty; sorted = true }
let singleton it = { items = Seq.return it; sorted = false }
let items t = t.items
let sorted t = t.sorted

let to_list t =
  Obs.Metrics.incr materializations;
  List.of_seq t.items

let head t = Option.map fst (Seq.uncons t.items)
let is_empty t = Option.is_none (Seq.uncons t.items)

let take n t =
  if n <= 0 then { empty with sorted = t.sorted }
  else { t with items = Seq.take n t.items }

(* a subsequence keeps order and distinctness *)
let filteri f t =
  let indexed =
    Seq.filter (fun (i, x) -> f i x) (Seq.mapi (fun i x -> (i, x)) t.items)
  in
  { t with items = Seq.map snd indexed }

let append a b = { items = Seq.append a.items b.items; sorted = false }

(* effective boolean value with a bounded pull: the answer is decided
   by the first two items, matching {!Xdm_item.effective_boolean}
   (including its error on multi-item atomic-first sequences) *)
let effective_boolean t =
  match Seq.uncons t.items with
  | None -> false
  | Some (I.Node _, _) -> true
  | Some ((I.Atomic _ as a), rest) -> (
      match Seq.uncons rest with
      | None -> I.effective_boolean [ a ]
      | Some (b, _) -> I.effective_boolean [ a; b ])
