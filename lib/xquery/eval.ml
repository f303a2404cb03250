open Xmlb
module A = Xdm_atomic
module I = Xdm_item
module D = Dynamic_context

exception Exit_with of I.sequence

(* scripting-extension loop control (paper Â§3.3 lists while/continue/break) *)
exception Break_loop
exception Continue_loop

type seq = I.sequence
type thunk = unit -> seq

let err code fmt = Xq_error.raise_error code fmt
let type_err fmt = err Xq_error.type_error_code fmt

(* The bounds of [lo to hi], if not empty. Its length must be an int:
   past [max_int] it wraps to a non-positive one. *)
let range_of lo hi =
  if lo > hi then None
  else if hi - lo + 1 <= 0 then
    err "FOAR0002" "the range %d to %d has more than %d items" lo hi max_int
  else Some (lo, hi)

let max_depth = 4000

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)

let subtree n = n :: Dom.descendants n
let rev_subtree n = List.rev_append (Dom.descendants n) [ n ]

(* following:: as a structural walk — the subtrees of the following
   siblings of the node and of each of its ancestors, nearest ancestor
   first — instead of filtering every node of the document. An
   attribute sorts after its element and before the element's
   children, so its following nodes are the element's descendants plus
   the element's following nodes. *)
let rec structural_following node =
  match Dom.kind node with
  | Dom.Attribute -> (
      match Dom.parent node with
      | Some e -> Dom.descendants e @ structural_following e
      | None -> [])
  | _ ->
      List.concat_map
        (fun a -> List.concat_map subtree (Dom.following_siblings a))
        (node :: Dom.ancestors node)

(* preceding:: in reverse document order (nearest first), mirroring
   the naive filtered-and-reversed result. Ancestors are excluded by
   construction: only sibling subtrees are emitted. *)
let rec structural_preceding node =
  match Dom.kind node with
  | Dom.Attribute -> (
      match Dom.parent node with
      | Some e -> structural_preceding e
      | None -> [])
  | _ ->
      List.concat_map
        (fun a -> List.concat_map rev_subtree (Dom.preceding_siblings a))
        (node :: Dom.ancestors node)

let axis_nodes axis node =
  match (axis : Ast.axis) with
  | Ast.Child -> Dom.children node
  | Ast.Descendant -> Dom.descendants node
  | Ast.Attribute_axis -> Dom.attributes node
  | Ast.Self -> [ node ]
  | Ast.Descendant_or_self -> node :: Dom.descendants node
  | Ast.Parent -> ( match Dom.parent node with None -> [] | Some p -> [ p ])
  | Ast.Ancestor -> Dom.ancestors node (* nearest first *)
  | Ast.Ancestor_or_self -> node :: Dom.ancestors node
  | Ast.Following_sibling -> Dom.following_siblings node
  | Ast.Preceding_sibling -> Dom.preceding_siblings node (* nearest first *)
  | Ast.Following ->
      if Ablation.current.acceleration then structural_following node
      else
        let all = Dom.descendants (Dom.root node) in
        List.filter
          (fun m ->
            Dom.compare_order node m < 0 && not (Dom.is_ancestor ~ancestor:node m))
          all
  | Ast.Preceding ->
      if Ablation.current.acceleration then structural_preceding node
      else
        let all = Dom.descendants (Dom.root node) in
        List.rev
          (List.filter
             (fun m ->
               Dom.compare_order m node < 0 && not (Dom.is_ancestor ~ancestor:m node))
             all)

let principal_is_attribute = function Ast.Attribute_axis -> true | _ -> false

let principal_kind_ok axis node =
  match Dom.kind node with
  | Dom.Attribute -> principal_is_attribute axis
  | Dom.Element -> not (principal_is_attribute axis)
  | _ -> false

let node_test_matches ~axis (test : Ast.node_test) node =
  match test with
  | Ast.Kind_test kt -> Seq_type.kind_matches kt node
  | Ast.Wildcard -> principal_kind_ok axis node
  | Ast.Ns_wildcard uri ->
      principal_kind_ok axis node
      &&
      (match Dom.name node with
      | Some { Qname.uri = Some u; _ } -> String.equal u uri
      | _ -> false)
  | Ast.Local_wildcard local ->
      principal_kind_ok axis node
      &&
      (match Dom.name node with
      | Some n -> String.equal n.Qname.local local
      | None -> false)
  | Ast.Name_test qn -> principal_kind_ok axis node && Dom.has_name node qn

(* registry counters both evaluators bump *)
let steps = Obs.Metrics.counter "eval.steps"
let desc_index_steps = Obs.Metrics.counter "eval.step.desc-index"
let value_index_steps = Obs.Metrics.counter "eval.step.value-index"

let axis_metric =
  let c name = Obs.Metrics.counter ("eval.axis." ^ name) in
  let child = c "child"
  and descendant = c "descendant"
  and attribute = c "attribute"
  and self = c "self"
  and descendant_or_self = c "descendant-or-self"
  and following_sibling = c "following-sibling"
  and preceding_sibling = c "preceding-sibling"
  and following = c "following"
  and preceding = c "preceding"
  and parent = c "parent"
  and ancestor = c "ancestor"
  and ancestor_or_self = c "ancestor-or-self" in
  function
  | Ast.Child -> child
  | Ast.Descendant -> descendant
  | Ast.Attribute_axis -> attribute
  | Ast.Self -> self
  | Ast.Descendant_or_self -> descendant_or_self
  | Ast.Following_sibling -> following_sibling
  | Ast.Preceding_sibling -> preceding_sibling
  | Ast.Following -> following
  | Ast.Preceding -> preceding
  | Ast.Parent -> parent
  | Ast.Ancestor -> ancestor
  | Ast.Ancestor_or_self -> ancestor_or_self

let count_step axis = Obs.Metrics.incr steps; Obs.Metrics.incr (axis_metric axis)

let calls = Obs.Metrics.counter "eval.calls"
let builtin_calls = Obs.Metrics.counter "eval.calls.builtin"
let constructor_calls = Obs.Metrics.counter "eval.calls.constructor"
let user_calls = Obs.Metrics.counter "eval.calls.user"
let external_calls = Obs.Metrics.counter "eval.calls.external"

let count_call kind = Obs.Metrics.incr calls; Obs.Metrics.incr kind

(* Footprint recording for a non-indexed axis step: downward axes read
   the origin's subtree; sibling/parent axes read the parent's subtree;
   upward and lateral axes conservatively read the whole tree. (The
   indexed fast paths record their probes inside [Dom] instead.) *)
let record_axis_scope axis n =
  let scope_of m =
    Footprint.reading_scope ~root:(Dom.root_watch m) ~node:(Dom.id m)
  in
  match (axis : Ast.axis) with
  | Ast.Child | Ast.Attribute_axis | Ast.Self | Ast.Descendant
  | Ast.Descendant_or_self ->
      scope_of n
  | Ast.Parent | Ast.Following_sibling | Ast.Preceding_sibling -> (
      match Dom.parent n with Some p -> scope_of p | None -> scope_of n)
  | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following | Ast.Preceding ->
      scope_of (Dom.root n)

(* the nodes that pass the test, in one list built in place *)
let[@tail_mod_cons] rec matching axis test = function
  | [] -> []
  | n :: rest ->
      if node_test_matches ~axis test n then n :: matching axis test rest
      else matching axis test rest

let rec attribute_named qn = function
  | [] -> []
  | a :: rest -> if Dom.has_name a qn then [ a ] else attribute_named qn rest

(* Nodes selected by one axis step. descendant::name and
   descendant-or-self::name (what the optimizer rewrites //name into)
   resolve through the per-document local-name index instead of
   filtering the materialised descendant list. *)
let step_nodes axis (test : Ast.node_test) n =
  count_step axis;
  let finish_local hits refine =
    Obs.Metrics.incr desc_index_steps;
    let hits =
      match refine with None -> hits | Some f -> List.filter f hits
    in
    match (axis : Ast.axis) with
    | Ast.Descendant -> List.filter (fun m -> not (Dom.equal m n)) hits
    | _ -> hits
  in
  let by_local local refine =
    finish_local (Dom.get_elements_by_local_name n local) refine
  in
  (* Name_test probes by the pre-interned symbol when the interning fast
     paths are on; the ablated path re-hashes the local-name string. *)
  let by_sym sym refine =
    finish_local (Dom.get_elements_by_local_sym n sym) refine
  in
  match (axis, test) with
  | (Ast.Descendant | Ast.Descendant_or_self), Ast.Local_wildcard local
    when Ablation.current.acceleration ->
      by_local local None
  | (Ast.Descendant | Ast.Descendant_or_self), Ast.Name_test qn
    when Ablation.current.acceleration ->
      let refine = Some (fun m -> Dom.has_name m qn) in
      if Ablation.current.interning then by_sym qn.Qname.lsym refine
      else by_local qn.Qname.local refine
  | Ast.Attribute_axis, Ast.Name_test qn ->
      (* an element has at most one attribute of a name *)
      if Footprint.recording () then record_axis_scope axis n;
      attribute_named qn (Dom.attributes n)
  | _ ->
      if Footprint.recording () then record_axis_scope axis n;
      matching axis test (axis_nodes axis n)

(* Value-index lookup: answer a leading [@k eq 'lit'] / [@k = 'lit'] /
   [k = 'lit'] predicate on a descendant step from the per-root value
   index instead of scanning every candidate. Restricted to string
   literals (a numeric literal against an untyped key is a type error
   under [eq] and a double promotion under [=] — both need the scan)
   and, for child-element text, to the general comparison ([k eq 'v']
   must raise on an element with two [k] children; the existential [=]
   never does). Index hits are refined against the exact QName/axis,
   so namespace-exact semantics are preserved even though buckets are
   keyed by local name. Returns the candidates in document order with
   the first predicate consumed, or [None] to fall back. *)
let value_index_step axis test preds n =
  let applicable =
    Ablation.current.value_index
    && preds <> []
    &&
    match (axis : Ast.axis) with
    | Ast.Descendant | Ast.Descendant_or_self -> (
        match (test : Ast.node_test) with
        | Ast.Name_test _ | Ast.Local_wildcard _ | Ast.Wildcard -> true
        | _ -> false)
    | _ -> false
  in
  if not applicable then None
  else begin
    (* The index answers by (name/attr, value) key — recorded inside
       [Dom.value_lookup] — but a named step test additionally reads
       the candidates' element names (a rename changes the result
       without touching the probed key). *)
    (if Footprint.recording () then
       match (test : Ast.node_test) with
       | Ast.Name_test qn ->
           Footprint.reading_name
             ~root:(Dom.root_watch n)
             ~scope:(Dom.id n) qn.Qname.lsym
       | Ast.Local_wildcard local ->
           Footprint.reading_name
             ~root:(Dom.root_watch n)
             ~scope:(Dom.id n) (Sym.intern local)
       | _ -> ());
    let candidate el =
      node_test_matches ~axis test el
      && (match axis with Ast.Descendant -> not (Dom.equal el n) | _ -> true)
    in
    let finish nodes rest =
      count_step axis;
      Obs.Metrics.incr value_index_steps;
      Some (List.sort_uniq Dom.compare_order nodes, rest)
    in
    (* Probe by the Qname's pre-interned symbol when the interning fast
       paths are on; the ablated probe re-hashes the local-name string
       (both key the same buckets — interning is a bijection). *)
    let attr_lookup qn s ~general rest =
      match
        (if Ablation.current.interning then
           Dom.elements_by_attr_value_sym n ~local:qn.Qname.lsym s
         else Dom.elements_by_attr_value n ~local:qn.Qname.local s)
      with
      | None -> None
      | Some bucket ->
          let keep el =
            candidate el
            &&
            let matching =
              List.filter
                (node_test_matches ~axis:Ast.Attribute_axis (Ast.Name_test qn))
                (Dom.attributes el)
            in
            if general then
              List.exists (fun a -> Dom.string_value a = s) matching
            else
              match matching with
              | [] -> false
              | [ a ] -> Dom.string_value a = s
              | _ -> type_err "value comparison requires singleton operands"
          in
          finish (List.filter keep bucket) rest
    in
    let child_lookup qn s rest =
      match
        (if Ablation.current.interning then
           Dom.elements_by_text_value_sym n ~local:qn.Qname.lsym s
         else Dom.elements_by_text_value n ~local:qn.Qname.local s)
      with
      | None -> None
      | Some bucket ->
          let parents =
            List.filter_map
              (fun child ->
                if not (node_test_matches ~axis:Ast.Child (Ast.Name_test qn) child)
                then None
                else if Dom.string_value child <> s then None
                else
                  match Dom.parent child with
                  | Some p
                    when Dom.kind p = Dom.Element
                         && (Dom.equal p n || Dom.is_ancestor ~ancestor:n p)
                         && candidate p ->
                      Some p
                  | _ -> None)
              bucket
          in
          finish parents rest
    in
    match preds with
    | pred :: rest -> (
        let shape lhs lit general =
          match (lhs, lit) with
          | ( Ast.E_step (Ast.Attribute_axis, Ast.Name_test qn, []),
              A.String s ) ->
              attr_lookup qn s ~general rest
          | Ast.E_step (Ast.Child, Ast.Name_test qn, []), A.String s
            when general ->
              child_lookup qn s rest
          | _ -> None
        in
        match pred with
        | Ast.E_value_comp (Ast.Eq, lhs, Ast.E_literal lit) ->
            shape lhs lit false
        | Ast.E_value_comp (Ast.Eq, Ast.E_literal lit, rhs) ->
            shape rhs lit false
        | Ast.E_general_comp (Ast.Eq, lhs, Ast.E_literal lit) ->
            shape lhs lit true
        | Ast.E_general_comp (Ast.Eq, Ast.E_literal lit, rhs) ->
            shape rhs lit true
        | _ -> None)
    | [] -> None
  end

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                  *)

let value_compare_pair op a b =
  (* value comparison: untyped operands are compared as strings *)
  let norm = function A.Untyped s -> A.String s | a -> a in
  let a = norm a and b = norm b in
  match (op : Ast.value_comp) with
  | Ast.Eq -> A.equal_value a b
  | Ast.Ne -> not (A.equal_value a b)
  | Ast.Lt -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b < 0
  | Ast.Le -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b <= 0
  | Ast.Gt -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b > 0
  | Ast.Ge -> (not (A.is_nan a || A.is_nan b)) && A.compare_value a b >= 0

let general_compare_pair op a b =
  (* general comparison: untyped adapts to the other operand's type *)
  let pair =
    match (a, b) with
    | A.Untyped x, A.Untyped y -> (A.String x, A.String y)
    | A.Untyped x, b when A.is_numeric b ->
        (A.cast ~target:A.T_double (A.Untyped x), b)
    | a, A.Untyped y when A.is_numeric a ->
        (a, A.cast ~target:A.T_double (A.Untyped y))
    | A.Untyped x, b -> (A.cast ~target:(A.type_of b) (A.Untyped x), b)
    | a, A.Untyped y -> (a, A.cast ~target:(A.type_of a) (A.Untyped y))
    | a, b -> (a, b)
  in
  let a, b = pair in
  value_compare_pair op a b

(* ------------------------------------------------------------------ *)
(* Operators over evaluated operands (shared with the compiler)        *)

let value_comp op va vb =
  match (I.atomize va, I.atomize vb) with
  | [], _ | _, [] -> []
  | [ x ], [ y ] -> [ I.Atomic (A.Boolean (value_compare_pair op x y)) ]
  | _ -> type_err "value comparison requires singleton operands"

let general_comp op va vb =
  let va = I.atomize va and vb = I.atomize vb in
  let hit x = List.exists (fun y -> general_compare_pair op x y) vb in
  [ I.Atomic (A.Boolean (List.exists hit va)) ]

let node_comp (op : Ast.node_comp) na nb =
  match (na, nb) with
  | [], _ | _, [] -> []
  | [ I.Node x ], [ I.Node y ] ->
      let r =
        match op with
        | Ast.Is -> Dom.equal x y
        | Ast.Precedes -> Dom.compare_order x y < 0
        | Ast.Follows -> Dom.compare_order x y > 0
      in
      [ I.Atomic (A.Boolean r) ]
  | _ -> type_err "node comparison requires single nodes"

let arith (op : Ast.arith) va vb =
  let f =
    match op with
    | Ast.Add -> A.add
    | Ast.Sub -> A.subtract
    | Ast.Mul -> A.multiply
    | Ast.Div -> A.divide
    | Ast.Idiv -> A.integer_divide
    | Ast.Mod -> A.modulo
  in
  match (I.atomize va, I.atomize vb) with
  | [], _ | _, [] -> []
  | [ x ], [ y ] -> [ I.Atomic (f x y) ]
  | _ -> type_err "arithmetic requires singleton operands"

let negate v =
  match I.atomize v with
  | [] -> []
  | [ x ] -> [ I.Atomic (A.negate x) ]
  | _ -> type_err "unary minus requires a singleton operand"

let treat st v =
  if Seq_type.matches st v then v
  else
    err "XPDY0050" "treat as %s failed on a sequence of %d item(s)"
      (Seq_type.to_string st) (List.length v)

let castable ty optional v =
  match I.atomize v with
  | [] -> [ I.Atomic (A.Boolean optional) ]
  | [ x ] -> [ I.Atomic (A.Boolean (A.castable ~target:ty x)) ]
  | _ -> [ I.Atomic (A.Boolean false) ]

let cast ty optional v =
  match I.atomize v with
  | [] ->
      if optional then []
      else type_err "cast of an empty sequence to a non-optional type"
  | [ x ] -> [ I.Atomic (A.cast ~target:ty x) ]
  | _ -> type_err "cast requires a singleton operand"

(* the xs: constructor function of [ty] *)
let construct_atomic ty v =
  match I.atomize v with
  | [] -> []
  | [ a ] -> [ I.Atomic (A.cast ~target:ty a) ]
  | _ -> type_err "constructor function requires a singleton"

(* the bounds of [lo to hi] from its operands: none when one is empty;
   a failing cast propagates *)
let range_bounds lo hi =
  let endpoint f =
    match I.opt_atomic (f ()) with
    | None -> None
    | Some a -> (
        match A.cast ~target:A.T_integer a with
        | A.Integer i -> Some i
        | _ -> None)
  in
  match (endpoint lo, endpoint hi) with
  | Some lo, Some hi -> range_of lo hi
  | _ -> None

let range_items = function
  | Some (lo, hi) -> List.init (hi - lo + 1) (fun i -> I.Atomic (A.Integer (lo + i)))
  | None -> []

(* [e1/e2]: [step item position size] evaluates e2 for each lhs node;
   node results come back in document order *)
let path_map step lhs =
  let n = List.length lhs in
  let results =
    List.concat
      (List.mapi
         (fun i item ->
           match item with
           | I.Node _ -> step item (i + 1) n
           | I.Atomic _ -> type_err "path step applied to an atomic value")
         lhs)
  in
  if results = [] then []
  else if I.all_nodes results then I.document_order results
  else if List.exists I.is_node results then
    err "XPTY0018" "path result mixes nodes and atomic values"
  else results

(* [lhs/axis::test] for a step without predicates, which reads no
   position or size: {!step_nodes} once per lhs node, with no focus,
   then document order once (a singleton on a forward axis is in it
   already) *)
let path_step axis test lhs =
  match lhs with
  | [] -> []
  | [ I.Node n ] when Focus_analysis.forward_ordered axis -> I.of_nodes (step_nodes axis test n)
  | _ ->
      let rec go acc = function
        | [] -> acc
        | I.Node n :: rest ->
            go (List.fold_left (fun acc m -> I.Node m :: acc) acc (step_nodes axis test n)) rest
        | I.Atomic _ :: _ -> type_err "path step applied to an atomic value"
      in
      I.document_order (List.rev (go [] lhs))

(* a predicate's value keeps the item at [pos]: numeric by position,
   anything else by its effective boolean value *)
let pred_keeps pos = function
  | [ I.Atomic a ] when A.is_numeric a ->
      A.compare_value a (A.Integer pos) = 0
  | v -> I.effective_boolean v

(* a predicate chain; [value ctx p] evaluates predicate [p] under a
   focus whose size is the stage's input length *)
let filter_items value ctx items preds =
  List.fold_left
    (fun items p ->
      let n = List.length items in
      List.filteri
        (fun i item ->
          let pos = i + 1 in
          pred_keeps pos (value (D.with_focus ctx item ~position:pos ~size:n) p))
        items)
    items preds

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

type part = Fresh of seq | Copied of seq | Text of string

(* The content being formed: attributes and children, newest first; the
   text run, its non-empty pieces newest first, and the node that stands
   for it while it is one fresh text node. *)
type content_state = {
  mutable attrs : Dom.node list;
  mutable kids : Dom.node list;
  mutable run : string list;
  mutable lone : Dom.node option;
  mutable seen_child : bool;
}

let add_text st node s =
  if s <> "" then begin
    st.lone <- (match st.run with [] -> node | _ -> None);
    st.run <- s :: st.run
  end

let flush_text st =
  match st.run with
  | [] -> ()
  | pieces ->
      let t =
        match (st.lone, pieces) with
        | Some t, _ -> t
        | None, [ s ] -> Dom.create_text s
        | None, _ -> Dom.create_text (String.concat "" (List.rev pieces))
      in
      st.run <- [];
      st.lone <- None;
      st.seen_child <- true;
      st.kids <- t :: st.kids

let rec content_node st fresh n =
  match Dom.kind n with
  | Dom.Attribute ->
      if st.seen_child || st.run <> [] then
        err "XQTY0024" "attribute nodes must precede other element content";
      st.attrs <- (if fresh then n else Dom.clone n) :: st.attrs
  | Dom.Document -> content_nodes st (Dom.children n)
  | Dom.Text ->
      (* a copied text is read, as [Dom.clone] would read it *)
      if fresh then add_text st (Some n) (Option.value (Dom.value n) ~default:"")
      else add_text st None (Dom.string_value n)
  | _ ->
      flush_text st;
      st.seen_child <- true;
      st.kids <- (if fresh then n else Dom.clone n) :: st.kids

(* a document's children, copied *)
and content_nodes st = function
  | [] -> ()
  | n :: rest ->
      content_node st false n;
      content_nodes st rest

let rec content_items st fresh after_atomic = function
  | [] -> ()
  | I.Atomic a :: rest ->
      if after_atomic then add_text st None " ";
      add_text st None (A.to_string a);
      content_items st fresh true rest
  | I.Node n :: rest ->
      content_node st fresh n;
      content_items st fresh false rest

let rec content_parts st = function
  | [] -> ()
  | part :: rest ->
      (match part with
      | Fresh items -> content_items st true false items
      | Copied items -> content_items st false false items
      | Text s -> add_text st None s);
      content_parts st rest

(* The content of a constructor, [insert] or [replace] as attribute and
   child nodes, in one pass over its parts (XQuery 3.1 §3.9.1.3): the
   adjacent atomics of one part join with single spaces; adjacent text,
   from literals, atomics and text nodes and across parts, becomes one
   text node, and empty text none; a document is replaced by its
   children; attributes must come before everything else. The nodes of
   a fresh part are linked as they are, every other node is copied: a
   lone fresh text node is kept, merged text and a literal's text are
   new nodes. *)
let content = function
  | [] -> ([], [])
  | parts ->
      let st = { attrs = []; kids = []; run = []; lone = None; seen_child = false } in
      content_parts st parts;
      flush_text st;
      (List.rev st.attrs, List.rev st.kids)

(* Shared by the tree-walker and the compiled evaluator; see eval.mli. *)
let construct n ~attrs parts =
  let content_attrs, kids = content parts in
  let attrs =
    match content_attrs with
    | [] -> attrs
    | _ ->
        if Dom.kind n = Dom.Document then
          type_err "a document node cannot contain an attribute node";
        attrs @ content_attrs
  in
  (* most elements have at most one attribute: no name list to build *)
  (match attrs with
  | [] | [ _ ] -> ()
  | _ ->
      Option.iter
        (fun q ->
          err "XQDY0025" "duplicate attribute %s in a constructed element"
            (Qname.to_string q))
        (Qname.find_duplicate (List.filter_map Dom.name attrs)));
  Dom.fill n ~attrs kids;
  [ I.Node n ]

let qname_of_value ctx v =
  ignore ctx;
  match v with
  | A.Qname_v q -> q
  | A.String s | A.Untyped s -> Qname.of_string s
  | a -> type_err "expected a QName, got xs:%s" (A.type_name (A.type_of a))

(* ------------------------------------------------------------------ *)
(* Shared building blocks                                              *)

(* The reference evaluator below and the closure compiler call these
   with values or closures as arguments, so the two evaluators share
   one implementation of every rule that is more than plumbing. *)

(* built once per dynamic context, at its first call *)
let call_ctx (ctx : D.t) =
  match ctx.D.call with
  | Some c -> c
  | None ->
      let c =
        {
          Call_ctx.context_item =
            (match ctx.D.focus with Some f -> Some f.D.item | None -> None);
          position = (match ctx.D.focus with Some f -> f.D.position | None -> 0);
          size = (match ctx.D.focus with Some f -> f.D.size | None -> 0);
          doc = ctx.D.host.D.doc;
          doc_available = ctx.D.host.D.doc_available;
          put = ctx.D.host.D.put;
          now = ctx.D.host.D.now;
          trace = Call_ctx.default.Call_ctx.trace;
        }
      in
      ctx.D.call <- Some c;
      c

(* a user function's call protocol around its body: the recursion
   limit, a fresh local scope, exit with/break/continue stopping at the
   boundary, the result coerced to the declared type *)
let call_declared (decl : Ast.function_decl) ctx body =
  if ctx.D.depth > max_depth then
    err "XQDY0054" "maximum recursion depth exceeded in %s" (Qname.to_string decl.Ast.fname);
  let result =
    try body (D.function_scope ctx) with
    | Exit_with v -> v
    | Break_loop | Continue_loop -> err "XSST0010" "break/continue outside of a while loop"
  in
  match decl.Ast.return_type with
  | Some st -> Seq_type.coerce ~what:(Qname.to_string decl.Ast.fname ^ " result") st result
  | None -> result

(* -- updates: each expression's pending-update primitive; operands
   are thunks, evaluated in the order given here -- *)

let fresh_part fresh items = if fresh then Fresh items else Copied items

let single_target what = function
  | [ I.Node n ] -> n
  | _ -> err Xq_error.update_target "%s target must be a single node" what

(* The children's primitive is added even when it has none: applying
   the list checks the target. *)
let insert pul (pos : Ast.insert_position) ~fresh ~source ~target =
  let attrs, kids = content [ fresh_part fresh (source ()) ] in
  let target = single_target "insert" (target ()) in
  (match pos with
  | Ast.Into | Ast.As_first_into | Ast.As_last_into ->
      Pul.add pul
        (match pos with
        | Ast.As_first_into -> Pul.Insert_first (target, kids)
        | _ -> Pul.Insert_into (target, kids));
      if attrs <> [] then Pul.add pul (Pul.Insert_attributes (target, attrs))
  | Ast.Before | Ast.After ->
      if attrs <> [] then
        err Xq_error.update_target "cannot insert attributes before/after a node";
      Pul.add pul
        (match pos with
        | Ast.Before -> Pul.Insert_before (target, kids)
        | _ -> Pul.Insert_after (target, kids)));
  []

let delete pul targets =
  List.iter
    (function
      | I.Node n -> Pul.add pul (Pul.Delete n)
      | I.Atomic _ -> err Xq_error.update_target "delete target must be nodes")
    targets;
  []

let replace pul ~value_of ~fresh ~target ~source =
  let tnode = single_target "replace" (target ()) in
  Pul.add pul
    (if value_of then Pul.Replace_value (tnode, I.sequence_string (source ()))
     else
       let attrs, kids = content [ fresh_part fresh (source ()) ] in
       Pul.Replace_node (tnode, attrs @ kids));
  []

let rename ctx pul ~target ~name =
  let tnode = single_target "rename" (target ()) in
  let qn = qname_of_value ctx (I.singleton_atomic (name ())) in
  (match (Dom.pi_target tnode, qn.Qname.prefix) with
  | Some _, Some p when p <> "" ->
      err "XUDY0025" "a processing instruction cannot be renamed to the prefixed name %s"
        (Qname.to_string qn)
  | _ -> ());
  Pul.add pul (Pul.Rename (tnode, qn));
  []

(* transform: the copy a [copy $v := e] clause binds *)
let copy_source = function
  | [ I.Node n ] -> Dom.clone n
  | _ -> type_err "copy source must be a single node"

(* -- order by: sorting tuples on their keys -- *)

let order_key v =
  match I.atomize v with
  | [] -> None
  | [ a ] -> Some a
  | _ -> type_err "order by key must be a singleton"

(* a stable sort of [(keys, tuple)] pairs on their keys, per spec *)
let sort_keyed (order : Ast.order_spec list) keyed =
  let compare_keys ka kb =
    let rec go ka kb specs =
      match (ka, kb, specs) with
      | [], [], _ -> 0
      | a :: ra, b :: rb, spec :: rs ->
          let c =
            match (a, b) with
            | None, None -> 0
            | None, Some _ ->
                if spec.Ast.empty_greatest = Some true then 1 else -1
            | Some _, None ->
                if spec.Ast.empty_greatest = Some true then -1 else 1
            | Some x, Some y ->
                let x = match x with A.Untyped s -> A.String s | x -> x in
                let y = match y with A.Untyped s -> A.String s | y -> y in
                A.compare_value x y
          in
          let c = if spec.Ast.descending then -c else c in
          if c <> 0 then c else go ra rb rs
      | _ -> 0
    in
    go ka kb order
  in
  List.stable_sort (fun (ka, _) (kb, _) -> compare_keys ka kb) keyed
  |> List.map snd

(* Hash-join execution (planner-introduced; see Optimizer's join
   section). The right (build) side is hashed on its key's string
   atoms — both keys are variable-rooted node paths, so every atom is
   xs:untypedAtomic and string equality is exactly the comparison
   semantics of [eq] and of untyped-vs-untyped [=]. The left (probe)
   side is pulled item by item; pairs come out probe-major with
   build-side matches in source order, i.e. the nested-loop tuple
   order. [build_key] and [probe_key] evaluate a key with their
   variable bound to the given item.

   Error parity with the nested-loop plan: the build is forced lazily
   at the first probe item, so an empty left source never evaluates
   the right source (the eager plan's second for clause expands an
   empty tuple set); an empty *right source* skips probe-key
   evaluation the same way (no tuples, so the eager where never
   runs). A multi-valued [eq] key is a singleton type error under the
   nested-loop plan only for pairs where the *other* operand is
   non-empty (empty operands make the comparison empty, hence false,
   before the cardinality of the other side matters) — so a
   multi-valued build key marks its position instead of raising, and
   each probe item with a non-empty key yields its matches from
   earlier build rows and then raises lazily when the consumer pulls
   past them, mirroring the nested loop's pair-by-pair order (an
   early-exiting consumer may stop before the erroring pair). Which
   of several inevitable errors is reported may still differ from the
   eager plan's pair order — XQuery §2.3.4 allows that reordering. *)
let hash_builds = Obs.Metrics.counter "xquery.join.hash_builds"
let join_probes = Obs.Metrics.counter "xquery.join.probes"

let hash_join ~general ~build ~build_key ~probe_key (probe_items : I.item Seq.t)
    : (I.item * I.item) Seq.t =
  let table =
    lazy
      (let right = build () in
       Obs.Metrics.incr hash_builds;
       let tbl : (string, (int * I.item) list) Hashtbl.t =
         Hashtbl.create (max 16 (List.length right))
       in
       (* first build row whose [eq] key has 2+ atoms: its pairs are
          singleton type errors for every non-empty probe key *)
       let pidx = ref max_int in
       List.iteri
         (fun i item ->
           match I.atomize (build_key item) with
           | _ :: _ :: _ when not general -> if !pidx = max_int then pidx := i
           | atoms ->
               List.iter
                 (fun a ->
                   let ks = A.to_string a in
                   let prev = Option.value ~default:[] (Hashtbl.find_opt tbl ks) in
                   if not (List.exists (fun (i', _) -> i' = i) prev) then
                     Hashtbl.replace tbl ks ((i, item) :: prev))
                 atoms)
         right;
       Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl;
       (tbl, !pidx, match right with [] -> false | _ -> true))
  in
  let singleton_err () = type_err "value comparison requires singleton operands" in
  let probe item =
    let tbl, pidx, had_rows = Lazy.force table in
    let matches =
      if not had_rows then Seq.empty
      else begin
        Obs.Metrics.incr join_probes;
        match I.atomize (probe_key item) with
        | [] -> Seq.empty
        | atoms when general ->
            (* several probe atoms can hit the same build row; the
               existential [=] keeps the tuple once, in b-order *)
            List.concat_map
              (fun a -> Option.value ~default:[] (Hashtbl.find_opt tbl (A.to_string a)))
              atoms
            |> List.sort_uniq (fun (i, _) (i', _) -> Int.compare i i')
            |> List.to_seq
        | [ a ] ->
            let ms = Option.value ~default:[] (Hashtbl.find_opt tbl (A.to_string a)) in
            if pidx = max_int then List.to_seq ms
            else
              (* matches before the multi-valued build row stream
                 out; pulling past them reaches the erroring pair *)
              Seq.append
                (List.to_seq (List.filter (fun (i, _) -> i < pidx) ms))
                (fun () -> singleton_err ())
        | _ ->
            (* multi-valued [eq] probe key: every pair against a
               non-empty build key errors, and pairs against empty
               keys are false, so the first keyed build row raises *)
            if Hashtbl.length tbl > 0 || pidx < max_int then singleton_err ()
            else Seq.empty
      end
    in
    Seq.map (fun (_, bitem) -> (item, bitem)) matches
  in
  Seq.concat_map probe probe_items

(* -- typeswitch, clause variables, full text -- *)

(* the branch of the first case whose type matches [v] *)
let select_case cases default v =
  match List.find_opt (fun (st, _) -> Seq_type.matches st v) cases with
  | Some (_, branch) -> branch
  | None -> default

(* a clause variable's or parameter's value, coerced to its type *)
let coerce_var var = function
  | Some st -> Seq_type.coerce ~what:("$" ^ Qname.to_string var) st
  | None -> Fun.id

let ft_haystack hay = String.concat " " (List.map I.item_string hay)

let ft_words ~stemming hay phrases =
  List.exists (fun p -> Fulltext.contains ~stemming hay (I.item_string p)) phrases

(* ------------------------------------------------------------------ *)
(* The reference evaluator                                             *)

(* One run of a listener's body, the paper's Fig. 1 cycle: the body
   runs, then its pending updates are applied ([exit with] ends it
   normally). On an XQuery error the updates are dropped, the error
   goes to the host's console and the run gives [None]. *)
let run_listener ctx body =
  match
    let v = try body () with Exit_with v -> v in
    Pul.apply ctx.D.pul;
    v
  with
  | v -> Some v
  | exception Xq_error.Error e ->
      Pul.clear ctx.D.pul;
      ctx.D.host.D.listener_error (Xq_error.to_string e);
      None

let rec eval (ctx : D.t) (e : Ast.expr) : I.sequence =
  match e with
  | Ast.E_literal a -> [ I.Atomic a ]
  | Ast.E_text_literal s -> [ I.Node (Dom.create_text s) ]
  | Ast.E_var qn -> D.lookup ctx qn
  | Ast.E_context_item -> [ D.focus_item ctx ]
  | Ast.E_sequence es -> List.concat_map (eval ctx) es
  | Ast.E_range (a, b) ->
      range_items (range_bounds (fun () -> eval ctx a) (fun () -> eval ctx b))
  | Ast.E_if (c, t, f) -> if ebv ctx c then eval ctx t else eval ctx f
  | Ast.E_or (a, b) ->
      if ebv ctx a then [ I.Atomic (A.Boolean true) ]
      else [ I.Atomic (A.Boolean (ebv ctx b)) ]
  | Ast.E_and (a, b) ->
      if not (ebv ctx a) then [ I.Atomic (A.Boolean false) ]
      else [ I.Atomic (A.Boolean (ebv ctx b)) ]
  | Ast.E_value_comp (op, a, b) -> binary ctx (value_comp op) a b
  | Ast.E_general_comp (op, a, b) -> binary ctx (general_comp op) a b
  | Ast.E_node_comp (op, a, b) -> binary ctx (node_comp op) a b
  | Ast.E_ftcontains (e, sel) ->
      let text = ft_haystack (eval ctx e) in
      [ I.Atomic (A.Boolean (eval_ft ctx text sel)) ]
  | Ast.E_arith (op, a, b) -> binary ctx (arith op) a b
  | Ast.E_unary_minus e -> negate (eval ctx e)
  | Ast.E_union (a, b) -> binary ctx I.union a b
  | Ast.E_intersect (a, b) -> binary ctx I.intersect a b
  | Ast.E_except (a, b) -> binary ctx I.except a b
  | Ast.E_instance_of (e, st) ->
      [ I.Atomic (A.Boolean (Seq_type.matches st (eval ctx e))) ]
  | Ast.E_treat_as (e, st) -> treat st (eval ctx e)
  | Ast.E_castable_as (e, ty, optional) -> castable ty optional (eval ctx e)
  | Ast.E_cast_as (e, ty, optional) -> cast ty optional (eval ctx e)
  | Ast.E_root -> (
      match D.focus_item ctx with
      | I.Node n -> [ I.Node (Dom.root n) ]
      | I.Atomic _ -> type_err "the context item for '/' is not a node")
  | Ast.E_step (axis, test, preds) -> (
      match D.focus_item ctx with
      | I.Atomic _ -> type_err "axis step applied to an atomic context item"
      | I.Node n ->
          let nodes, preds =
            match value_index_step axis test preds n with
            | Some (nodes, rest) -> (nodes, rest)
            | None -> (step_nodes axis test n, preds)
          in
          filter_items eval ctx (List.map (fun m -> I.Node m) nodes) preds)
  | Ast.E_path (e1, e2) ->
      path_map
        (fun item position size -> eval (D.with_focus ctx item ~position ~size) e2)
        (eval ctx e1)
  | Ast.E_filter (e, preds) -> filter_items eval ctx (eval ctx e) preds
  | Ast.E_flwor { clauses; where; order; return } ->
      eval_flwor ctx ~clauses ~where ~order ~return
  | Ast.E_hash_join j ->
      let pairs =
        hash_join ~general:j.Ast.jgeneral
          ~build:(thunk ctx j.Ast.jright_source)
          ~build_key:(fun it -> eval (D.bind ctx j.Ast.jright_var [ it ]) j.Ast.jright_key)
          ~probe_key:(fun it -> eval (D.bind ctx j.Ast.jleft_var [ it ]) j.Ast.jleft_key)
          (List.to_seq (eval ctx j.Ast.jleft_source))
      in
      let bind (l, r) = D.bind (D.bind ctx j.Ast.jleft_var [ l ]) j.Ast.jright_var [ r ] in
      let passes c = Option.fold ~none:true ~some:(ebv c) j.Ast.jwhere in
      let tuples = List.of_seq (Seq.filter passes (Seq.map bind pairs)) in
      List.concat_map (fun c -> eval c j.Ast.jreturn) (order_tuples j.Ast.jorder tuples)
  | Ast.E_quantified (quant, binds, body) ->
      let rec go ctx = function
        | [] -> ebv ctx body
        | (var, var_type, src) :: rest ->
            let coerce = coerce_var var var_type in
            let test item = go (D.bind ctx var (coerce [ item ])) rest in
            let items = eval ctx src in
            (match quant with
            | Ast.Some_quant -> List.exists test items
            | Ast.Every_quant -> List.for_all test items)
      in
      [ I.Atomic (A.Boolean (go ctx binds)) ]
  | Ast.E_typeswitch (op, cases, default) ->
      let v = eval ctx op in
      let var, body =
        select_case
          (List.map
             (fun c -> (c.Ast.case_type, (c.Ast.case_var, c.Ast.case_body)))
             cases)
          default v
      in
      let ctx = match var with Some var -> D.bind ctx var v | None -> ctx in
      eval ctx body
  | Ast.E_call (qn, args) -> call_function ctx qn (List.map (eval ctx) args)
  | Ast.E_ordered e | Ast.E_unordered e -> eval ctx e
  | Ast.E_enclosed e -> eval ctx e
  (* ---- constructors ---- *)
  | Ast.E_direct_element { name; attributes; children } ->
      (* the element, then its attributes, then its content *)
      let el = Dom.create_element name in
      let attrs =
        List.map
          (fun (an, parts) ->
            Dom.create_attribute an
              (String.concat ""
                 (List.map
                    (function
                      | Ast.A_text t -> t
                      | Ast.A_enclosed e -> I.sequence_string (eval ctx e))
                    parts)))
          attributes
      in
      (* the reference treats no content as fresh: it copies every
         node, the identity oracle for production's adopted ones *)
      construct el ~attrs (List.map (fun c -> Copied (eval ctx c)) children)
  | Ast.E_computed_element (name_e, content_e) ->
      let name =
        qname_of_value ctx (I.singleton_atomic (eval ctx name_e))
      in
      let el = Dom.create_element name in
      construct el ~attrs:[] [ Copied (eval ctx content_e) ]
  | Ast.E_computed_attribute (name_e, content_e) ->
      let name = qname_of_value ctx (I.singleton_atomic (eval ctx name_e)) in
      let value = I.sequence_string (eval ctx content_e) in
      [ I.Node (Dom.create_attribute name value) ]
  | Ast.E_computed_text e ->
      [ I.Node (Dom.create_text (I.sequence_string (eval ctx e))) ]
  | Ast.E_computed_comment e ->
      [ I.Node (Dom.create_comment (I.sequence_string (eval ctx e))) ]
  | Ast.E_computed_pi (name_e, content_e) ->
      let target = I.sequence_string (eval ctx name_e) in
      [ I.Node (Dom.create_pi ~target (I.sequence_string (eval ctx content_e))) ]
  | Ast.E_computed_document e ->
      let doc = Dom.create_document () in
      construct doc ~attrs:[] [ Copied (eval ctx e) ]
  (* ---- updates ---- *)
  | Ast.E_insert (pos, source, target) ->
      insert ctx.D.pul pos ~fresh:false ~source:(thunk ctx source) ~target:(thunk ctx target)
  | Ast.E_delete e -> delete ctx.D.pul (eval ctx e)
  | Ast.E_replace { value_of; target; source } ->
      replace ctx.D.pul ~value_of ~fresh:false ~target:(thunk ctx target)
        ~source:(thunk ctx source)
  | Ast.E_rename (target, name) ->
      rename ctx ctx.D.pul ~target:(thunk ctx target) ~name:(thunk ctx name)
  | Ast.E_transform (binds, modify, return) ->
      let copies =
        List.map (fun (var, src) -> (var, copy_source (eval ctx src))) binds
      in
      let ctx' =
        List.fold_left (fun c (var, n) -> D.bind c var [ I.Node n ]) ctx copies
      in
      let inner_pul = Pul.create () in
      ignore (eval { ctx' with D.pul = inner_pul } modify);
      (* XUDY0014: updates must stay within the copied trees *)
      Pul.apply inner_pul;
      eval ctx' return
  (* ---- scripting ---- *)
  | Ast.E_block [ Ast.S_expr e ] -> eval ctx e
  | Ast.E_block stmts -> eval_block ctx stmts
  (* ---- browser extensions ---- *)
  | Ast.E_event_attach { event; binding; target; listener } ->
      attach ctx binding listener ~event:(thunk ctx event) ~target:(thunk ctx target)
  | Ast.E_event_detach { event; target; listener } ->
      detach ctx listener ~event:(thunk ctx event) ~target:(thunk ctx target)
  | Ast.E_event_trigger { event; target } ->
      trigger ctx ~event:(thunk ctx event) ~target:(thunk ctx target)
  | Ast.E_set_style { property; target; value } ->
      set_style ctx ~property:(thunk ctx property) ~value:(thunk ctx value)
        ~target:(thunk ctx target)
  | Ast.E_get_style { property; target } ->
      get_style ctx ~property:(thunk ctx property) ~target:(thunk ctx target)

and ebv ctx e = I.effective_boolean (eval ctx e)

and thunk ctx e () = eval ctx e

(* operands left to right *)
and binary ctx f a b =
  let va = eval ctx a in
  f va (eval ctx b)

and eval_ft ctx hay (sel : Ast.ft_selection) =
  match sel with
  | Ast.Ft_and (a, b) -> eval_ft ctx hay a && eval_ft ctx hay b
  | Ast.Ft_or (a, b) -> eval_ft ctx hay a || eval_ft ctx hay b
  | Ast.Ft_not a -> not (eval_ft ctx hay a)
  | Ast.Ft_words (e, opts) ->
      ft_words ~stemming:(List.mem Ast.Ft_stemming opts) hay (eval ctx e)

(* tuples are generated depth-first, each returned as it is found
   unless they are ordered first: the compiler's evaluation order *)
and eval_flwor ctx ~clauses ~where ~order ~return =
  let rec tuples c clauses () =
    match clauses with
    | [] -> (
        match where with
        | Some w when not (ebv c w) -> Seq.Nil
        | _ -> Seq.Cons (c, Seq.empty))
    | Ast.Let_clause { var; var_type; value } :: rest ->
        tuples (D.bind c var (coerce_var var var_type (eval c value))) rest ()
    | Ast.For_clause { var; pos_var; var_type; source } :: rest ->
        let bind i item =
          let c = D.bind c var (coerce_var var var_type [ item ]) in
          match pos_var with
          | Some pv -> D.bind c pv [ I.Atomic (A.Integer (i + 1)) ]
          | None -> c
        in
        Seq.concat_map
          (fun (i, item) -> tuples (bind i item) rest)
          (Seq.mapi (fun i x -> (i, x)) (List.to_seq (eval c source)))
          ()
  in
  let tuples = tuples ctx clauses in
  let tuples =
    if order = [] then tuples else List.to_seq (order_tuples order (List.of_seq tuples))
  in
  List.of_seq (Seq.concat_map (fun c -> List.to_seq (eval c return)) tuples)

(* order-by over a materialised tuple (context) list; shared by the
   FLWOR and hash-join plans *)
and order_tuples order tuples =
  if order = [] then tuples
  else
    sort_keyed order
      (List.map
         (fun c -> (List.map (fun spec -> order_key (eval c spec.Ast.key)) order, c))
         tuples)

(* -------- scripting blocks -------- *)

(* Statements run in order and the pending updates are applied at
   every statement boundary (paper §3.3). A declaration scopes over
   the statements after it; a while body is a block of its own. *)
and eval_block ctx stmts =
  let rec step c (stmt : Ast.statement) =
    match stmt with
    | Ast.S_expr e -> (c, eval c e)
    | Ast.S_var_decl (var, var_type, init) ->
        let v =
          match init with
          | Some e -> coerce_var var var_type (eval c e)
          | None -> []
        in
        (D.bind c var v, [])
    | Ast.S_assign (var, e) ->
        let v = eval c e in
        D.lookup_ref c var := v;
        (c, [])
    | Ast.S_while (cond, body) ->
        let rec loop () =
          if ebv c cond then
            match ignore (List.fold_left (fun c s -> fst (step_stmt c s)) c body) with
            | () -> loop ()
            | exception Break_loop -> ()
            | exception Continue_loop -> loop ()
        in
        loop ();
        (c, [])
    | Ast.S_break ->
        Pul.apply c.D.pul;
        raise Break_loop
    | Ast.S_continue ->
        Pul.apply c.D.pul;
        raise Continue_loop
    | Ast.S_exit_with e ->
        let v = eval c e in
        Pul.apply c.D.pul;
        raise (Exit_with v)
  and step_stmt c stmt =
    let c', v = step c stmt in
    Pul.apply c'.D.pul;
    (c', v)
  in
  snd (List.fold_left (fun (c, _) stmt -> step_stmt c stmt) (ctx, []) stmts)

(* -------- function calls -------- *)

and call_function ctx qn args =
  let arity = List.length args in
  if Static_context.is_blocked ctx.D.static qn then
    err Xq_error.security "function %s is blocked in this context (browser security policy)"
      (Qname.to_string qn);
  (* xs: constructor functions are casts *)
  match qn.Qname.uri with
  | Some u when String.equal u Qname.Ns.xs && arity = 1 -> (
      count_call constructor_calls;
      match A.type_of_name qn.Qname.local with
      | Some ty -> construct_atomic ty (List.hd args)
      | None ->
          err Xq_error.unknown_function "unknown type constructor xs:%s"
            qn.Qname.local)
  | _ -> (
      match Static_context.find_function ctx.D.static qn ~arity with
      | Some decl ->
          count_call user_calls;
          call_user_function ctx decl args
      | None -> (
          match Static_context.find_external ctx.D.static qn ~arity with
          | Some f ->
              count_call external_calls;
              (* external functions reach host state the footprint
                 cannot see *)
              Footprint.poison ();
              f (call_ctx ctx) args
          | None -> (
              match Functions.find qn ~arity with
              | Some f ->
                  count_call builtin_calls;
                  if Reactive.impure_builtin_sym qn.Qname.lsym then
                    Footprint.poison ();
                  f (call_ctx ctx) args
              | None ->
                  err Xq_error.unknown_function
                    "unknown function %s#%d" (Qname.to_string qn) arity)))

and call_user_function ctx (decl : Ast.function_decl) args =
  (* production runs the compiled body Engine installed into the
     dynamic context (keyed by symbol triple); the reference
     configuration installs none and walks the declaration *)
  (match
     if Hashtbl.length ctx.D.compiled_fns = 0 then None
     else
       Hashtbl.find_opt ctx.D.compiled_fns
         (D.fn_key decl.Ast.fname ~arity:(List.length decl.Ast.params))
   with
  | Some impl -> impl ctx args
  | None -> call_user_function_ast ctx decl args)

and call_user_function_ast ctx (decl : Ast.function_decl) args =
  call_declared decl ctx (fun fctx ->
      let fctx =
        List.fold_left2
          (fun c (pname, ptype) arg -> D.bind c pname (coerce_var pname ptype arg))
          fctx decl.Ast.params args
      in
      match (decl.Ast.kind, decl.Ast.body) with
      | _, None ->
          err Xq_error.unknown_function "external function %s has no implementation"
            (Qname.to_string decl.Ast.fname)
      | Ast.F_sequential, Some (Ast.E_block stmts) -> eval_block fctx stmts
      | _, Some e -> eval fctx e)

and make_listener ctx qn =
  let invoke ?memo mk_args =
    let arity_for n = Static_context.find_function ctx.D.static qn ~arity:n in
    (* pad/truncate the provided arguments to a declared arity *)
    let fit args =
      let rec go n =
        if n < 0 then args
        else if arity_for n <> None then begin
          let provided = List.length args in
          if provided >= n then List.filteri (fun i _ -> i < n) args
          else args @ List.init (n - provided) (fun _ -> [])
        end
        else go (n - 1)
      in
      go 4
    in
    let run_plain args = ignore (run_listener ctx (fun () -> call_function ctx qn args)) in
    (* Re-run the listener with footprint recording; everything it
       reads lands in [fp], and impurity (PUL effects, external calls,
       impure builtins, global reads) poisons it. [Pul.apply] must run
       while recording is still active so its effects poison the run. *)
    let run_recorded m akey args =
      Obs.Metrics.incr Reactive.reruns;
      let fp = Footprint.create () in
      let prev = Footprint.start fp in
      let closed = ref false in
      let finish ~ok =
        closed := true;
        Footprint.restore prev;
        Reactive.finish_run m ~ok ~args_key:akey ~fp
      in
      Fun.protect
        ~finally:(fun () -> if not !closed then finish ~ok:false)
        (fun () ->
          finish
            ~ok:
              (Option.is_some
                 (run_listener ctx (fun () ->
                      Reactive.record_args args;
                      call_function ctx qn args))))
    in
    match memo with
    | None -> run_plain (fit (mk_args ()))
    | Some (m, akey) -> (
        (* the host's key determines the arguments, so a Skip happens
           before the argument thunk is even forced *)
        match Reactive.decide m ~args_key:akey with
        | Reactive.Skip -> Obs.Metrics.incr Reactive.skips
        | Reactive.Run_plain ->
            Obs.Metrics.incr Reactive.reruns;
            run_plain (fit (mk_args ()))
        | Reactive.Run_recorded -> run_recorded m akey (fit (mk_args ())))
  in
  { D.listener_name = qn; invoke }

(* -------- browser extensions: the host calls behind the syntax -------- *)

(* every one reaches host state the footprint cannot see; operands are
   thunks, evaluated in the order given here *)
and attach ctx binding listener ~event ~target =
  Footprint.poison ();
  let event_type = I.sequence_string (event ()) in
  let listener = make_listener ctx listener in
  (match (binding : Ast.event_binding) with
  | Ast.Bind_at -> ctx.D.host.D.attach ~event_type ~targets:(target ()) ~listener
  | Ast.Bind_behind -> ctx.D.host.D.attach_behind ~event_type ~computation:target ~listener);
  []

and detach ctx name ~event ~target =
  Footprint.poison ();
  let event_type = I.sequence_string (event ()) in
  ctx.D.host.D.detach ~event_type ~targets:(target ()) ~name;
  []

and trigger ctx ~event ~target =
  Footprint.poison ();
  let event_type = I.sequence_string (event ()) in
  ctx.D.host.D.trigger ~event_type ~targets:(target ());
  []

and set_style ctx ~property ~value ~target =
  Footprint.poison ();
  let prop = I.sequence_string (property ()) in
  let v = I.sequence_string (value ()) in
  List.iter
    (function
      | I.Node n -> ctx.D.host.D.set_style n prop v
      | I.Atomic _ -> type_err "set style target must be nodes")
    (target ());
  []

(* the style side table is not footprint-tracked: an unrecordable read *)
and get_style ctx ~property ~target =
  Footprint.poison ();
  let prop = I.sequence_string (property ()) in
  match target () with
  | I.Node n :: _ -> (
      match ctx.D.host.D.get_style n prop with
      | Some v -> [ I.Atomic (A.String v) ]
      | None -> [])
  | _ -> []
