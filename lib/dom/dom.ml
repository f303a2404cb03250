open Xmlb

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

(* Per-node state of the layer above: [Dom_event] keeps a node's
   listeners here, so they are freed with the node. *)
type slot = ..
type slot += Empty

type node = {
  nid : int;
  mutable nkind : payload;
  mutable nparent : node option;
  mutable nside : side;
}

(* What a node carries besides its structure, made on first use: its
   slot, and the per-root record of a node that is (or was) a tree
   root, which then holds the slot too. The per-root record is only
   consulted while the node is a root; see the "Acceleration" section
   below. *)
and side = Bare | Slotted of slot | Rooted of accel

and accel = {
  mutable rslot : slot;  (* the node's slot, kept here once it has one *)
  mutable observers : observer list;  (* registration order *)
  watch : Footprint.watch;  (* footprints that read this tree *)
  mutable gen : int;
      (* bumped by every mutation under this root; caches whose
         [*_gen] stamp differs are stale and relabel on demand *)
  mutable egen : int;
      (* element-structure generation: bumped only by mutations that
         can change which elements exist, their names, or their id
         attributes. Value-only mutations (text/attribute content)
         leave it alone, so the id / local-name element indexes
         survive them *)
  mutable keys_gen : int;
  okeys : (int, int) Hashtbl.t;  (* nid -> document-order ordinal *)
  mutable idx_gen : int;
  by_id : (int, node list) Hashtbl.t;
      (* id attribute value (interned) -> elements, document order *)
  by_name : (int, node list) Hashtbl.t;
      (* local-name symbol -> elements, document order *)
  mutable vidx_gen : int;
  by_attr_value : (int * int, node list) Hashtbl.t;
      (* (attr local-name sym, value sym) -> owning elements, doc order *)
  by_text_value : (int * int, node list) Hashtbl.t;
      (* (elem local-name sym, string-value sym) -> flat elements,
         doc order *)
  text_complex : (int, unit) Hashtbl.t;
      (* local-name syms with at least one non-flat (element-children)
         occurrence; text-value lookups on these names are unreliable
         and must fall back to a scan *)
}

and payload =
  | P_document of { mutable dchildren : node list; uri : string option }
  | P_element of {
      mutable ename : Qname.t;
      mutable eattrs : node list;
      mutable echildren : node list;
    }
  | P_attribute of { mutable aname : Qname.t; mutable avalue : string }
  | P_text of { mutable tcontent : string }
  | P_comment of { mutable ccontent : string }
  | P_pi of { target : string; mutable pcontent : string }

and mutation =
  | Children_changed of node
  | Attribute_changed of node * Qname.t
  | Value_changed of node
  | Renamed of node

and observer = { watched : node; callback : mutation -> unit }

exception Dom_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Dom_error m)) fmt
let counter = ref 0

let fresh payload =
  incr counter;
  { nid = !counter; nkind = payload; nparent = None; nside = Bare }

let create_document ?uri () = fresh (P_document { dchildren = []; uri })

let create_attribute name value = fresh (P_attribute { aname = name; avalue = value })

let create_element ?(attrs = []) name =
  let n = fresh (P_element { ename = name; eattrs = []; echildren = [] }) in
  let make_attr (an, v) =
    let a = create_attribute an v in
    a.nparent <- Some n;
    a
  in
  (match n.nkind with
  | P_element e -> e.eattrs <- List.map make_attr attrs
  | _ -> assert false);
  n

let create_text content = fresh (P_text { tcontent = content })
let create_comment content = fresh (P_comment { ccontent = content })
let create_pi ~target content = fresh (P_pi { target; pcontent = content })

let kind n =
  match n.nkind with
  | P_document _ -> Document
  | P_element _ -> Element
  | P_attribute _ -> Attribute
  | P_text _ -> Text
  | P_comment _ -> Comment
  | P_pi _ -> Processing_instruction

let id n = n.nid

let name n =
  match n.nkind with
  | P_element e -> Some e.ename
  | P_attribute a -> Some a.aname
  | P_pi p -> Some (Qname.make p.target)
  | P_document _ | P_text _ | P_comment _ -> None

let parent n = n.nparent

let children n =
  match n.nkind with
  | P_document d -> d.dchildren
  | P_element e -> e.echildren
  | P_attribute _ | P_text _ | P_comment _ | P_pi _ -> []

let attributes n =
  match n.nkind with
  | P_element e -> e.eattrs
  | P_document _ | P_attribute _ | P_text _ | P_comment _ | P_pi _ -> []

let attribute n qn =
  List.find_map
    (fun a ->
      match a.nkind with
      | P_attribute { aname; avalue } when Qname.equal aname qn -> Some avalue
      | _ -> None)
    (attributes n)

let attribute_local n local =
  List.find_map
    (fun a ->
      match a.nkind with
      | P_attribute { aname; avalue } when String.equal aname.Qname.local local ->
          Some avalue
      | _ -> None)
    (attributes n)

let value n =
  match n.nkind with
  | P_attribute a -> Some a.avalue
  | P_text t -> Some t.tcontent
  | P_comment c -> Some c.ccontent
  | P_pi p -> Some p.pcontent
  | P_document _ | P_element _ -> None

let document_uri n =
  match n.nkind with P_document d -> d.uri | _ -> None

let pi_target n = match n.nkind with P_pi p -> Some p.target | _ -> None

let rec root n = match n.nparent with None -> n | Some p -> root p
let slot n =
  match n.nside with Bare -> Empty | Slotted s -> s | Rooted a -> a.rslot

let set_slot n s =
  match (n.nside, s) with
  | Rooted a, _ -> a.rslot <- s
  | _, Empty -> n.nside <- Bare
  | _ -> n.nside <- Slotted s

(* ------------------------------------------------------------------ *)
(* Acceleration: per-root document-order keys and element indexes.

   Every root lazily carries an [accel] record, its per-root record: a
   generation counter bumped by every mutation under the root, plus
   three caches stamped with the generation they were built at —
   document-order ordinals (making [compare_order] an O(1) integer
   compare), an id->elements index and a local-name->elements index.
   Stale caches are rebuilt on demand by a single DFS. The record also
   owns the root's mutation observers and the footprint watch, so both
   are freed with the tree. The [acceleration] switch keeps the naive
   implementations selectable as the ablation baseline and test
   oracle. *)

let acceleration = ref true
let set_acceleration b = acceleration := b
let acceleration_enabled () = !acceleration

(* Value indexes (attribute values and flat-element text) share the
   accel generation counter but have their own switch, so join/lookup
   ablations can disable them without losing document-order keys. *)
let value_index = ref true
let set_value_index b = value_index := b
let value_index_enabled () = !value_index

(* Interned-name fast paths (the [--no-interning] ablation): forwards
   to the global [Sym] switch, which gates [Qname.equal]/[compare] and
   the evaluator's symbol probes. Index *storage* stays symbol-keyed
   either way — interning is a bijection, so both modes probe the same
   keys; the switch selects whether probe keys come from pre-interned
   symbols or are re-derived from strings. *)
let set_interned_fastpaths b = Sym.set_fastpaths b
let interned_fastpaths_enabled () = Sym.fastpaths_enabled ()

(* The "id" attribute's symbol, compared against attribute local names
   on every structural-invalidation decision. *)
let id_sym : Sym.t = Sym.intern "id"

(* Like [attribute_local], matching on the pre-interned local-name
   symbol instead of the string. *)
let attribute_by_sym n (sym : Sym.t) =
  List.find_map
    (fun a ->
      match a.nkind with
      | P_attribute { aname; avalue } when Sym.equal aname.Qname.lsym sym ->
          Some avalue
      | _ -> None)
    (attributes n)

(* Mark a node's own accel state stale. Called whenever the node
   becomes parentless: its caches may describe a tree it was part of
   while attached (mutations there only bumped the attached root). *)
let touch n =
  match n.nside with
  | Rooted s ->
      s.gen <- s.gen + 1;
      s.egen <- s.egen + 1
  | Bare | Slotted _ -> ()

(* Mark only value-dependent caches stale: the mutation changed text or
   attribute content but no element's existence, name, or id. *)
let touch_values n =
  match n.nside with Rooted s -> s.gen <- s.gen + 1 | Bare | Slotted _ -> ()

(* Mark the tree containing [n] as mutated. *)
let invalidate n = touch (root n)

let accel_of r =
  match r.nside with
  | Rooted s -> s
  | Bare | Slotted _ ->
      let s =
        {
          rslot = slot r;
          observers = [];
          watch = Footprint.watch ();
          gen = 0;
          egen = 0;
          keys_gen = -1;
          okeys = Hashtbl.create 8;
          idx_gen = -1;
          by_id = Hashtbl.create 8;
          by_name = Hashtbl.create 8;
          vidx_gen = -1;
          by_attr_value = Hashtbl.create 8;
          by_text_value = Hashtbl.create 8;
          text_complex = Hashtbl.create 8;
        }
      in
      r.nside <- Rooted s;
      s

let root_watch n = (accel_of (root n)).watch

(* Ordinals by pre-order DFS; an element's attributes are labelled
   after the element and before its children, matching the path
   comparison (Attr_at sorts before Child_at). *)
let ensure_keys r s =
  if s.keys_gen = s.gen then begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.accel.keys.hit"
  end
  else begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.accel.keys.rebuild";
    Hashtbl.reset s.okeys;
    let next = ref 0 in
    let assign n =
      Hashtbl.replace s.okeys n.nid !next;
      incr next
    in
    let rec label n =
      assign n;
      List.iter assign (attributes n);
      List.iter label (children n)
    in
    label r;
    s.keys_gen <- s.gen
  end

let ensure_indexes r s =
  if s.idx_gen = s.egen then begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.accel.index.hit"
  end
  else begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.accel.index.rebuild";
    Hashtbl.reset s.by_id;
    Hashtbl.reset s.by_name;
    let add tbl k v =
      Hashtbl.replace tbl k
        (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    in
    let rec walk n =
      (match n.nkind with
      | P_element e ->
          (match attribute_by_sym n id_sym with
          | Some v -> add s.by_id (Sym.intern v :> int) n
          | None -> ());
          add s.by_name (e.ename.Qname.lsym :> int) n
      | _ -> ());
      List.iter walk (children n)
    in
    walk r;
    let rev tbl = Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl in
    rev s.by_id;
    rev s.by_name;
    s.idx_gen <- s.egen
  end

let rec string_value_rec n =
  match n.nkind with
  | P_text t -> t.tcontent
  | P_attribute a -> a.avalue
  | P_comment c -> c.ccontent
  | P_pi p -> p.pcontent
  | P_document _ | P_element _ ->
      String.concat ""
        (List.filter_map
           (fun c ->
             match c.nkind with
             | P_text _ | P_element _ -> Some (string_value_rec c)
             | P_document _ | P_attribute _ | P_comment _ | P_pi _ -> None)
           (children n))

(* the single choke point for atomization and fn:string on nodes: a
   string-value read depends on the whole subtree *)
let string_value n =
  if Footprint.recording () then
    Footprint.reading_scope ~root:(root_watch n) ~node:n.nid;
  string_value_rec n

(* nearest first *)
let ancestors n =
  let rec go acc n =
    match n.nparent with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] n

let descendants n =
  let rec go acc n = List.fold_left (fun acc c -> go (c :: acc) c) acc (children n) in
  List.rev (go [] n)

let siblings_split n =
  match n.nparent with
  | None -> ([], [])
  | Some p ->
      let rec split before = function
        | [] -> (List.rev before, [])
        | c :: rest when c == n -> (List.rev before, rest)
        | c :: rest -> split (c :: before) rest
      in
      split [] (children p)

let following_siblings n = snd (siblings_split n)
let preceding_siblings n = List.rev (fst (siblings_split n))

(* Path from the root to the node: each step is a position index.
   Attributes sort after their element but before its children; we encode
   that with index -1 - attr_position so attributes order among
   themselves and before child index 0 via a dedicated comparison. *)
type step = Child_at of int | Attr_at of int

let path_to_root n =
  let rec go acc n =
    match n.nparent with
    | None -> acc
    | Some p ->
        let step =
          match n.nkind with
          | P_attribute _ ->
              let rec idx i = function
                | [] -> err "attribute not in parent's attribute list"
                | a :: _ when a == n -> i
                | _ :: rest -> idx (i + 1) rest
              in
              Attr_at (idx 0 (attributes p))
          | _ ->
              let rec idx i = function
                | [] -> err "node not in parent's child list"
                | c :: _ when c == n -> i
                | _ :: rest -> idx (i + 1) rest
              in
              Child_at (idx 0 (children p))
        in
        go (step :: acc) p
  in
  go [] n

let compare_step a b =
  match (a, b) with
  | Attr_at i, Attr_at j -> Int.compare i j
  | Attr_at _, Child_at _ -> -1
  | Child_at _, Attr_at _ -> 1
  | Child_at i, Child_at j -> Int.compare i j

let compare_paths a b =
  let rec cmp pa pb =
    match (pa, pb) with
    | [], [] -> 0
    | [], _ -> -1 (* a is an ancestor of b: a first *)
    | _, [] -> 1
    | sa :: ra, sb :: rb ->
        let c = compare_step sa sb in
        if c <> 0 then c else cmp ra rb
  in
  cmp (path_to_root a) (path_to_root b)

let compare_order_naive a b =
  if a == b then 0
  else
    let ra = root a and rb = root b in
    if ra != rb then Int.compare ra.nid rb.nid else compare_paths a b

let compare_order a b =
  if a == b then 0
  else
    let ra = root a and rb = root b in
    if ra != rb then Int.compare ra.nid rb.nid
    else if !acceleration then begin
      let s = accel_of ra in
      ensure_keys ra s;
      match (Hashtbl.find_opt s.okeys a.nid, Hashtbl.find_opt s.okeys b.nid) with
      | Some ka, Some kb ->
          if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.order.keyed";
          Int.compare ka kb
      | _ ->
          if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.order.path";
          compare_paths a b
    end
    else begin
      if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.order.path";
      compare_paths a b
    end

let order_key n =
  if not !acceleration then None
  else
    let r = root n in
    let s = accel_of r in
    ensure_keys r s;
    match Hashtbl.find_opt s.okeys n.nid with
    | Some k -> Some (r.nid, k)
    | None -> None

let is_ancestor ~ancestor n =
  let rec go n =
    match n.nparent with
    | None -> false
    | Some p -> p == ancestor || go p
  in
  go n

let equal a b = a == b

(* ------------------------------------------------------------------ *)
(* Mutation observers                                                  *)

(* An observer lives on the per-root record of the node it watches, in
   registration order, so delivering a mutation is one read of its
   root's list: observers on other trees cost nothing, and a tree's
   observers are freed with it. *)
type observer_id = observer

let observe ~root callback =
  let o = { watched = root; callback } in
  let s = accel_of root in
  s.observers <- s.observers @ [ o ];
  o

let unobserve o =
  match o.watched.nside with
  | Rooted s -> s.observers <- List.filter (fun o' -> o' != o) s.observers
  | Bare | Slotted _ -> ()

(* Per-mutation write-footprint extras: what beyond the mutation point
   the mutation touched. Subtree scans are deferred so they only run
   when the mutated tree is footprint-tracked. *)
type fp_item =
  | FP_subtree of node  (* inserted/removed/replaced subtree *)
  | FP_name of Sym.t  (* a local name whose index buckets changed *)
  | FP_id of string  (* an id attribute value added/removed/changed *)
  | FP_key of Sym.t * string  (* (attr local name, value) key touched *)

let fp_scan_subtree w n =
  let rec walk n =
    (match n.nkind with
    | P_element e ->
        Footprint.add_wname w e.ename.Qname.lsym;
        List.iter
          (fun a ->
            match a.nkind with
            | P_attribute { aname; avalue } ->
                Footprint.add_wkey w ~local:aname.Qname.lsym avalue;
                if Sym.equal aname.Qname.lsym id_sym then
                  Footprint.add_wid w avalue
            | _ -> ())
          e.eattrs
    | _ -> ());
    List.iter walk (children n)
  in
  walk n

(* Observer notifications queue while a batch is open (one PUL apply =
   one coherent post-apply changeset) and flush, in mutation order, when
   the outermost batch closes. Generation bumps (cache invalidation)
   stay immediate. *)
let batch_depth = ref 0
let batch_queue : (node * mutation) list ref = ref []

let deliver r mutation =
  match r.nside with
  | Rooted s -> List.iter (fun o -> o.callback mutation) s.observers
  | Bare | Slotted _ -> ()

let notify ?(fp = []) node mutation =
  let r = root node in
  (* A value-only mutation (text or non-id attribute content) cannot
     change which elements exist, their names, or their ids, so the
     element indexes survive it; anything touching an id value carries
     an [FP_id] in its footprint extras. Element [set_value] swaps its
     text children but emits [Value_changed]: element topology is
     untouched, and the detach path already staled the total
     generation for the ordinal and value caches. *)
  let structural =
    match mutation with
    | Value_changed _ | Attribute_changed _ ->
        List.exists (function FP_id _ -> true | _ -> false) fp
    | Children_changed _ | Renamed _ -> true
  in
  if structural then touch r else touch_values r;
  (* invalidate, with the root computed once *)
  (* registered footprints and observers live on the per-root record *)
  (match r.nside with
  | Rooted s ->
      if Footprint.capturing s.watch then begin
        let chain = node.nid :: List.map (fun a -> a.nid) (ancestors node) in
        let w = Footprint.fresh_wrec ~chain in
        List.iter
          (function
            | FP_subtree n -> fp_scan_subtree w n
            | FP_name l -> Footprint.add_wname w l
            | FP_id v -> Footprint.add_wid w v
            | FP_key (local, v) -> Footprint.add_wkey w ~local v)
          fp;
        Footprint.record_write s.watch w
      end;
      if s.observers != [] then
        if !batch_depth > 0 then begin
          if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.notify.batched";
          batch_queue := (r, mutation) :: !batch_queue
        end
        else deliver r mutation
  | Bare | Slotted _ -> ());
  if !batch_depth = 0 then Footprint.commit ()

let with_batch f =
  incr batch_depth;
  Fun.protect
    ~finally:(fun () ->
      decr batch_depth;
      if !batch_depth = 0 then begin
        let q = List.rev !batch_queue in
        batch_queue := [];
        List.iter (fun (r, m) -> deliver r m) q;
        Footprint.commit ()
      end)
    f

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)

let assert_insertable n =
  match n.nkind with
  | P_attribute _ -> err "cannot insert an attribute node as a child"
  | P_document _ -> err "cannot insert a document node as a child"
  | P_element _ | P_text _ | P_comment _ | P_pi _ -> ()

let set_children parent cs =
  match parent.nkind with
  | P_document d -> d.dchildren <- cs
  | P_element e -> e.echildren <- cs
  | P_attribute _ | P_text _ | P_comment _ | P_pi _ ->
      err "this node kind cannot have children"

let detach n =
  match n.nparent with
  | None -> ()
  | Some p ->
      (* detaching a text/comment/pi (or a non-id attribute) removes no
         element and no id: ordinals and value caches stale, element
         indexes survive *)
      (match n.nkind with
      | P_element _ | P_document _ -> invalidate p
      | P_attribute a when Sym.equal a.aname.Qname.lsym id_sym ->
          invalidate p
      | P_attribute _ | P_text _ | P_comment _ | P_pi _ ->
          touch_values (root p));
      (match n.nkind with
      | P_attribute _ -> (
          match p.nkind with
          | P_element e -> e.eattrs <- List.filter (fun a -> a != n) e.eattrs
          | _ -> ())
      | _ -> set_children p (List.filter (fun c -> c != n) (children p)));
      n.nparent <- None;
      touch n

(* Footprint extras for an attribute: its (local, value) key, plus the
   id index when the attribute is an id. [lsym] is the attribute's
   local-name symbol. *)
let fp_attr lsym v =
  FP_key (lsym, v) :: (if Sym.equal lsym id_sym then [ FP_id v ] else [])

let remove n =
  match n.nparent with
  | None -> ()
  | Some p -> (
      match n.nkind with
      | P_attribute { aname; avalue } ->
          detach n;
          notify ~fp:(fp_attr aname.Qname.lsym avalue) p
            (Attribute_changed (p, aname))
      | _ ->
          detach n;
          notify ~fp:[ FP_subtree n ] p (Children_changed p))

let append_child ~parent n =
  assert_insertable n;
  detach n;
  set_children parent (children parent @ [ n ]);
  n.nparent <- Some parent;
  notify ~fp:[ FP_subtree n ] parent (Children_changed parent)

let insert_first ~parent n =
  assert_insertable n;
  detach n;
  set_children parent (n :: children parent);
  n.nparent <- Some parent;
  notify ~fp:[ FP_subtree n ] parent (Children_changed parent)

let insert_relative ~before ~sibling n =
  assert_insertable n;
  match sibling.nparent with
  | None -> err "cannot insert relative to a parentless node"
  | Some p ->
      detach n;
      let rec weave = function
        | [] -> [ n ] (* sibling vanished concurrently; append *)
        | c :: rest when c == sibling ->
            if before then n :: c :: rest else c :: n :: rest
        | c :: rest -> c :: weave rest
      in
      set_children p (weave (children p));
      n.nparent <- Some p;
      notify ~fp:[ FP_subtree n ] p (Children_changed p)

let insert_before ~sibling n = insert_relative ~before:true ~sibling n
let insert_after ~sibling n = insert_relative ~before:false ~sibling n

let replace n replacements =
  match n.nparent with
  | None -> err "cannot replace a parentless node"
  | Some p -> (
      match n.nkind with
      | P_attribute _ ->
          detach n;
          let fp = ref [] in
          (match n.nkind with
          | P_attribute { aname; avalue } ->
              fp := fp_attr aname.Qname.lsym avalue
          | _ -> ());
          List.iter
            (fun r ->
              match r.nkind with
              | P_attribute { aname; avalue } ->
                  detach r;
                  (match p.nkind with
                  | P_element e -> e.eattrs <- e.eattrs @ [ r ]
                  | _ -> err "attribute replacement target is not an element");
                  r.nparent <- Some p;
                  fp := fp_attr aname.Qname.lsym avalue @ !fp
              | _ -> err "an attribute can only be replaced by attributes")
            replacements;
          notify ~fp:!fp p (Attribute_changed (p, Option.get (name n)))
      | _ ->
          List.iter assert_insertable replacements;
          let rec weave = function
            | [] -> err "node not found in parent during replace"
            | c :: rest when c == n -> replacements @ rest
            | c :: rest -> c :: weave rest
          in
          set_children p (weave (children p));
          n.nparent <- None;
          touch n;
          List.iter
            (fun r ->
              touch r;
              r.nparent <- Some p)
            replacements;
          notify
            ~fp:(FP_subtree n :: List.map (fun r -> FP_subtree r) replacements)
            p (Children_changed p))

let set_value n v =
  let fp =
    match n.nkind with
    | P_attribute a ->
        let lsym = a.aname.Qname.lsym in
        fp_attr lsym a.avalue @ fp_attr lsym v
    | P_text _ -> (
        (* text content feeds the parent element's text-value index *)
        match n.nparent with
        | Some { nkind = P_element e; _ } -> [ FP_name e.ename.Qname.lsym ]
        | _ -> [])
    | P_comment _ | P_pi _ -> []
    | P_element e ->
        (* replaceElementContent: old children go away; the element's
           own text-index key changes *)
        FP_name e.ename.Qname.lsym
        :: List.map (fun c -> FP_subtree c) (children n)
    | P_document _ -> List.map (fun c -> FP_subtree c) (children n)
  in
  (match n.nkind with
  | P_attribute a -> a.avalue <- v
  | P_text t -> t.tcontent <- v
  | P_comment c -> c.ccontent <- v
  | P_pi p -> p.pcontent <- v
  | P_element _ | P_document _ ->
      (* drop the old children in one pass ([detach] would re-filter
         the child list once per child), then bump the root once:
         structurally if an element went away *)
      let old = children n in
      if old <> [] then begin
        List.iter
          (fun c ->
            c.nparent <- None;
            touch c)
          old;
        if List.exists (fun c -> kind c = Element) old then invalidate n
        else touch_values (root n)
      end;
      let t = create_text v in
      set_children n [ t ];
      t.nparent <- Some n);
  notify ~fp n (Value_changed n)

let rename n qn =
  let fp =
    match n.nkind with
    | P_element e -> [ FP_name e.ename.Qname.lsym; FP_name qn.Qname.lsym ]
    | P_attribute a ->
        fp_attr a.aname.Qname.lsym a.avalue @ fp_attr qn.Qname.lsym a.avalue
    | _ -> []
  in
  (match n.nkind with
  | P_element e -> e.ename <- qn
  | P_attribute a -> a.aname <- qn
  | P_document _ | P_text _ | P_comment _ | P_pi _ ->
      err "only elements and attributes can be renamed");
  notify ~fp n (Renamed n)

let set_attribute el qn v =
  match el.nkind with
  | P_element e -> (
      match
        List.find_opt
          (fun a ->
            match a.nkind with
            | P_attribute { aname; _ } -> Qname.equal aname qn
            | _ -> false)
          e.eattrs
      with
      | Some a ->
          let old =
            match a.nkind with P_attribute r -> r.avalue | _ -> assert false
          in
          (match a.nkind with
          | P_attribute r -> r.avalue <- v
          | _ -> assert false);
          notify
            ~fp:(fp_attr qn.Qname.lsym old @ fp_attr qn.Qname.lsym v)
            el
            (Attribute_changed (el, qn))
      | None ->
          let a = create_attribute qn v in
          a.nparent <- Some el;
          e.eattrs <- e.eattrs @ [ a ];
          notify ~fp:(fp_attr qn.Qname.lsym v) el (Attribute_changed (el, qn)))
  | _ -> err "set_attribute: not an element"

let remove_attribute el qn =
  match el.nkind with
  | P_element e ->
      let fp = ref [] in
      e.eattrs <-
        List.filter
          (fun a ->
            match a.nkind with
            | P_attribute { aname; avalue } when Qname.equal aname qn ->
                fp := fp_attr aname.Qname.lsym avalue @ !fp;
                false
            | _ -> true)
          e.eattrs;
      notify ~fp:!fp el (Attribute_changed (el, qn))
  | _ -> err "remove_attribute: not an element"

let append_attribute ~parent a =
  match (parent.nkind, a.nkind) with
  | P_element e, P_attribute { aname; avalue } ->
      detach a;
      e.eattrs <- e.eattrs @ [ a ];
      a.nparent <- Some parent;
      notify
        ~fp:(fp_attr aname.Qname.lsym avalue)
        parent
        (Attribute_changed (parent, aname))
  | _ -> err "append_attribute: expects an element and an attribute"

(* ------------------------------------------------------------------ *)
(* One-pass construction of fresh trees.

   A node created inside the building call has no per-root record, so
   no observers and no registered footprints, and [notify] would have
   nothing to do for it: the builders map each child list once and set
   parent pointers directly instead of appending child by child. Every
   node is allocated before its attributes and its content, so ids
   follow pre-order: cross-tree [compare_order] orders roots by id. *)

(* [f] over [xs] in order, each result made a child of [parent] *)
let adopt_map parent f xs =
  List.map
    (fun x ->
      let c = f x in
      c.nparent <- Some parent;
      c)
    xs

let build_element name fa attrs fc kids =
  let el = create_element name in
  (match el.nkind with
  | P_element e ->
      e.eattrs <- adopt_map el fa attrs;
      e.echildren <- adopt_map el fc kids
  | _ -> assert false);
  el

let build_document ?uri fc kids =
  let doc = create_document ?uri () in
  set_children doc (adopt_map doc fc kids);
  doc

let fill n ~attrs kids =
  (match (n.nparent, n.nkind, attrs) with
  | None, P_element { echildren = []; _ }, _
  | None, P_document { dchildren = []; _ }, [] -> ()
  | _ ->
      err "fill: expects a parentless element, or document without attributes, \
           with no children");
  List.iter
    (fun a ->
      match (a.nkind, a.nparent) with
      | P_attribute _, None -> ()
      | _ -> err "fill: attributes must be parentless attribute nodes")
    attrs;
  List.iter
    (fun c ->
      assert_insertable c;
      if Option.is_some c.nparent then err "fill: children must be parentless")
    kids;
  (match n.nkind with
  | P_element e ->
      e.eattrs <- e.eattrs @ adopt_map n Fun.id attrs;
      e.echildren <- adopt_map n Fun.id kids
  | _ -> set_children n (adopt_map n Fun.id kids));
  (* caches someone built while [n] was empty are stale now *)
  touch n

let rec clone_rec n =
  match n.nkind with
  | P_document d -> build_document ?uri:d.uri clone_rec d.dchildren
  | P_element e -> build_element e.ename clone_rec e.eattrs clone_rec e.echildren
  | P_attribute a -> create_attribute a.aname a.avalue
  | P_text t -> create_text t.tcontent
  | P_comment c -> create_comment c.ccontent
  | P_pi p -> create_pi ~target:p.target p.pcontent

(* A clone observes the whole source subtree; one scope record covers
   it (no-op outside recorded listener runs). *)
let clone n =
  if Footprint.recording () then
    Footprint.reading_scope ~root:(root_watch n) ~node:n.nid;
  clone_rec n

(* ------------------------------------------------------------------ *)
(* Conversion                                                          *)

let rec node_of_tree = function
  | Xml_parser.Text t -> create_text t
  | Xml_parser.Comment c -> create_comment c
  | Xml_parser.Pi (target, data) -> create_pi ~target data
  | Xml_parser.Element (name, attrs, children) ->
      build_element name
        (fun a -> create_attribute a.Xml_parser.name a.Xml_parser.value)
        attrs node_of_tree children

let of_tree trees = build_document node_of_tree trees

let of_string ?options src = of_tree (Xml_parser.parse ?options src)

let rec to_tree n : Xml_parser.tree =
  match n.nkind with
  | P_text t -> Xml_parser.Text t.tcontent
  | P_comment c -> Xml_parser.Comment c.ccontent
  | P_pi p -> Xml_parser.Pi (p.target, p.pcontent)
  | P_attribute a ->
      (* standalone attribute: serialize as empty element for diagnostics *)
      Xml_parser.Element (a.aname, [], [ Xml_parser.Text a.avalue ])
  | P_element e ->
      let attrs =
        List.filter_map
          (fun a ->
            match a.nkind with
            | P_attribute { aname; avalue } ->
                Some { Xml_parser.name = aname; value = avalue }
            | _ -> None)
          e.eattrs
      in
      Xml_parser.Element (e.ename, attrs, List.map to_tree e.echildren)
  | P_document d -> (
      match d.dchildren with
      | [ c ] -> to_tree c
      | _ -> Xml_parser.Element (Qname.make "document", [], List.map to_tree d.dchildren))

let to_trees n =
  match n.nkind with
  | P_document d -> List.map to_tree d.dchildren
  | _ -> [ to_tree n ]

let serialize ?(indent = false) n =
  Xml_serializer.list_to_string
    ~options:{ Xml_serializer.indent; xml_declaration = false }
    (to_trees n)

let pp ppf n = Format.pp_print_string ppf (serialize n)

let in_subtree ~top n = top == n || is_ancestor ~ancestor:top n

(* Early-exit pre-order scan: stops at the first hit instead of
   materialising the full descendant list. *)
let rec scan_element_by_id n idv =
  let self_hit =
    match n.nkind with
    | P_element _ -> (
        match attribute_local n "id" with
        | Some v -> String.equal v idv
        | None -> false)
    | _ -> false
  in
  if self_hit then Some n
  else
    List.fold_left
      (fun acc c ->
        match acc with Some _ -> acc | None -> scan_element_by_id c idv)
      None (children n)

let get_element_by_id n idv =
  let hit =
    if !acceleration then begin
      if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.lookup.by-id";
      let r = root n in
      let s = accel_of r in
      ensure_indexes r s;
      (* probe without interning: a value that was never interned is in
         no index, and missing-id probes must not grow the table *)
      match
        Option.bind (Sym.find_opt idv) (fun sym ->
            Hashtbl.find_opt s.by_id (sym :> int))
      with
      | None | Some [] -> None
      | Some (first :: _ as bucket) ->
          if n == r then Some first
          else List.find_opt (fun c -> in_subtree ~top:n c) bucket
    end
    else begin
      if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.lookup.by-id.naive";
      scan_element_by_id n idv
    end
  in
  if Footprint.recording () then begin
    let rid = root_watch n in
    Footprint.reading_id ~root:rid ~scope:n.nid idv;
    (* the found element's name/content/attributes are now observable
       without further recorded steps: treat its subtree as read *)
    match hit with
    | Some el -> Footprint.reading_scope ~root:rid ~node:el.nid
    | None -> ()
  end;
  hit

let get_elements_by_local_sym n (sym : Sym.t) =
  if Footprint.recording () then
    Footprint.reading_name ~root:(root_watch n) ~scope:n.nid sym;
  if !acceleration then begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.lookup.by-name";
    let r = root n in
    let s = accel_of r in
    ensure_indexes r s;
    let bucket =
      Option.value ~default:[] (Hashtbl.find_opt s.by_name (sym :> int))
    in
    if n == r then bucket else List.filter (fun c -> in_subtree ~top:n c) bucket
  end
  else begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.lookup.by-name.naive";
    let candidates =
      match n.nkind with P_element _ -> n :: descendants n | _ -> descendants n
    in
    List.filter
      (fun c ->
        match c.nkind with
        | P_element e -> Sym.equal e.ename.Qname.lsym sym
        | _ -> false)
      candidates
  end

(* The string entry point interns (a table probe, the cost the old
   string-keyed index paid anyway); callers holding a [Qname.t] should
   use [get_elements_by_local_sym] with the pre-interned symbol. The
   intern is also what lets the footprint record a name the document
   does not contain yet. *)
let get_elements_by_local_name n local =
  get_elements_by_local_sym n (Sym.intern local)

(* ------------------------------------------------------------------ *)
(* Value indexes.

   Two per-root hash indexes keyed by (local name, string value):
   attribute values -> owning elements, and the string value of "flat"
   elements (no element children, so their value is just their text
   content) -> those elements. Both are stamped with the accel
   generation, so any mutation under the root — including every PUL
   primitive, which funnels through the mutators' [notify] — lazily
   invalidates them.

   Lookups return [None] whenever the index cannot answer exactly
   (switch off, or a text lookup on a local name that somewhere in the
   document has element children); callers must fall back to a scan.
   Buckets are keyed by local name only, so callers refine hits against
   the exact QName/axis they need. *)

let ensure_value_indexes r s =
  if s.vidx_gen <> s.gen then begin
    if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.value_index.rebuild";
    Hashtbl.reset s.by_attr_value;
    Hashtbl.reset s.by_text_value;
    Hashtbl.reset s.text_complex;
    let add tbl k v =
      Hashtbl.replace tbl k
        (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    in
    let rec walk n =
      (match n.nkind with
      | P_element e ->
          List.iter
            (fun a ->
              match a.nkind with
              | P_attribute { aname; avalue } ->
                  add s.by_attr_value
                    ((aname.Qname.lsym :> int), (Sym.intern avalue :> int))
                    n
              | _ -> ())
            e.eattrs;
          let flat =
            List.for_all
              (fun c ->
                match c.nkind with P_element _ -> false | _ -> true)
              e.echildren
          in
          if flat then
            add s.by_text_value
              ( (e.ename.Qname.lsym :> int),
                (Sym.intern (string_value n) :> int) )
              n
          else Hashtbl.replace s.text_complex (e.ename.Qname.lsym :> int) ()
      | _ -> ());
      List.iter walk (children n)
    in
    walk r;
    let rev tbl = Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl in
    rev s.by_attr_value;
    rev s.by_text_value;
    s.vidx_gen <- s.gen
  end

let value_lookup which n (lsym : Sym.t) v =
  if Footprint.recording () then begin
    (* Record the probe whether or not the index can answer: the scan
       fallback covers a superset, so this is conservative either way.
       Text probes record the local name (a text-value change under a
       flat element writes its name), attribute probes the exact key. *)
    let rid = root_watch n in
    match which with
    | `Attr -> Footprint.reading_key ~root:rid ~scope:n.nid ~local:lsym v
    | `Text -> Footprint.reading_name ~root:rid ~scope:n.nid lsym
  end;
  if not !value_index then None
  else begin
    let r = root n in
    let s = accel_of r in
    ensure_value_indexes r s;
    let tbl, complex =
      match which with
      | `Attr -> (s.by_attr_value, false)
      | `Text -> (s.by_text_value, Hashtbl.mem s.text_complex (lsym :> int))
    in
    if complex then None
    else begin
      if !Obs.Metrics.enabled then Obs.Metrics.incr "dom.value_index.hits";
      (* a value that was never interned keys no bucket; probing with
         [find_opt] keeps always-miss lookups from growing the table *)
      let bucket =
        match Sym.find_opt v with
        | None -> []
        | Some vsym ->
            Option.value ~default:[]
              (Hashtbl.find_opt tbl ((lsym :> int), (vsym :> int)))
      in
      Some
        (if n == r then bucket
         else List.filter (fun c -> in_subtree ~top:n c) bucket)
    end
  end

(* Elements in the subtree of [n] (inclusive) owning an attribute with
   the given local name and exact value, in document order. *)
let elements_by_attr_value_sym n ~local v = value_lookup `Attr n local v
let elements_by_attr_value n ~local v = value_lookup `Attr n (Sym.intern local) v

(* Flat elements in the subtree of [n] (inclusive) with the given local
   name and exact string value, in document order. *)
let elements_by_text_value_sym n ~local v = value_lookup `Text n local v
let elements_by_text_value n ~local v = value_lookup `Text n (Sym.intern local) v

(* Current accel generation of the tree containing [n]; exposed so
   tests can pin down exactly how often updates invalidate caches. *)
let generation n =
  match (root n).nside with Rooted s -> s.gen | Bare | Slotted _ -> 0
