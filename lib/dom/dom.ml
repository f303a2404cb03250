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

(* Values the layers above derive from a subtree (the renderer's block
   output), kept on the per-root record; see "Subtree memos". *)
type memo = ..

type node = {
  nid : int;
  mutable nkind : payload;
  mutable nparent : node option;
  mutable nside : side;
  mutable label : int;
      (* sparse document-order label, current while the root's record
         says its tree is labelled; -1 when unlabelled *)
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
  mutable labelled : bool;
      (* every node of the tree carries its label; set by the first
         order read or the first probe *)
  mutable elems : elems option;  (* built on the first probe *)
  attr_values : (int, (string, bucket) Hashtbl.t) Hashtbl.t;
      (* per probed attribute local-name symbol other than "id" (whose
         probes [elems.by_id] answers): value -> owning elements *)
  text_values : (int, text_index) Hashtbl.t;
      (* per probed element local-name symbol *)
  mutable memos : (string * (int, memo_entry) Hashtbl.t) list;
      (* the layers' memo tables, by client key: nid -> memo *)
}

(* A memo and the writes made under its node since it was stored; see
   "Subtree memos". *)
and memo_entry = {
  mutable value : memo;
  mutable through : node list;
  mutable changed : bool;
}

and elems = {
  by_id : (string, bucket) Hashtbl.t;  (* id attribute value -> elements *)
  by_name : (int, bucket) Hashtbl.t;  (* local-name symbol -> elements *)
}

(* Flat elements (no element children) of one local name, by their
   string value, which is then the concatenation of their text
   children; [complex] counts the elements of the name that are not
   flat, and while it is non-zero text lookups on the name fall back to
   a scan. *)
and text_index = {
  tvals : (string, bucket) Hashtbl.t;
  mutable complex : int;
}

(* Nodes sorted by label, so in document order, cut into chunks of at
   most [chunk_max] nodes. A chunk is never written in place: adding or
   removing a node copies its chunk, whatever the size of the bucket. *)
and bucket = {
  mutable chunks : node array array;  (* non-empty, in order *)
  mutable listed : node list option;  (* the nodes as a list, until they change *)
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
  | P_pi of { mutable target : string; mutable pcontent : string }

and mutation =
  | Children_changed of node
  | Attribute_changed of node * Qname.t
  | Value_changed of node
  | Renamed of node

and observer = { watched : node; callback : mutation -> unit }

type refusal =
  | Child_kind of kind
  | Childless of kind
  | Cycle
  | Parentless
  | Not_a_child
  | Owner_kind of kind
  | Rename_kind of kind
  | Replacement_kind of { target : kind; by : kind }

exception Refused of refusal

let refuse r = raise (Refused r)

let a_kind = function
  | Document -> "a document node"
  | Element -> "an element"
  | Attribute -> "an attribute"
  | Text -> "a text node"
  | Comment -> "a comment"
  | Processing_instruction -> "a processing instruction"

let refusal_message = function
  | Child_kind k -> a_kind k ^ " cannot be a child"
  | Childless k -> a_kind k ^ " cannot have children"
  | Cycle -> "a node cannot be inserted into itself or one of its descendants"
  | Parentless -> "the node to insert next to or to replace has no parent"
  | Not_a_child -> "the reference node is not a child of the parent"
  | Owner_kind k -> a_kind k ^ " cannot have attributes"
  | Rename_kind k -> a_kind k ^ " cannot be renamed"
  | Replacement_kind { target; by } -> a_kind target ^ " cannot be replaced by " ^ a_kind by

let counter = ref 0

let fresh payload =
  incr counter;
  { nid = !counter; nkind = payload; nparent = None; nside = Bare; label = -1 }

let create_document ?uri () = fresh (P_document { dchildren = []; uri })

let create_attribute name value = fresh (P_attribute { aname = name; avalue = value })

let rec make_attrs up = function
  | [] -> []
  | (an, v) :: rest ->
      let a = create_attribute an v in
      a.nparent <- up;
      a :: make_attrs up rest

let create_element ?(attrs = []) name =
  let n = fresh (P_element { ename = name; eattrs = []; echildren = [] }) in
  (match (attrs, n.nkind) with
  | [], _ -> ()
  | _, P_element e -> e.eattrs <- make_attrs (Some n) attrs
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

(* [name n] is [Some qn], without building the option *)
let has_name n qn =
  match n.nkind with
  | P_element e -> Qname.equal e.ename qn
  | P_attribute a -> Qname.equal a.aname qn
  | P_pi p -> Qname.equal (Qname.make p.target) qn
  | P_document _ | P_text _ | P_comment _ -> false

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
(* Acceleration: per-root caches that every write keeps.

   Every root lazily carries an [accel] record, its per-root record. It
   owns the root's mutation observers and footprint watch, so both are
   freed with the tree, and four caches:
   - sparse document-order labels, kept on the nodes themselves, making
     [compare_order] an O(1) integer compare (given as [of_string]
     builds the tree, else built on the first order read or with the
     element buckets);
   - id and local-name element buckets (built on the first probe);
   - per probed attribute name other than "id", or element name, value
     buckets (built on the first probe of that name; "id" values are
     the id buckets);
   - the memo tables of the layers above.
   A tree's first probe builds its labels and element buckets in one
   walk, a value probe's buckets take one more; from then on every
   write updates them in place from what the write touched (see "Write
   upkeep"), so the cost of a write and of the next read follows the
   write, not the size of the tree. Buckets are sorted by label, so
   building an index builds the labels too. [Ablation.current]'s
   [acceleration] field keeps the naive implementations selectable as
   the ablation baseline and test oracle; value indexes (attribute
   values and flat-element text) have their own [value_index] field,
   so join/lookup ablations can disable them without losing
   document-order labels. *)

(* The "id" attribute's symbol, compared against attribute local names
   whenever an attribute enters or leaves a tree. *)
let id_sym : Sym.t = Sym.intern "id"

(* registry counters ({!Obs.Metrics}): cache builds and hits, per-write
   upkeep, lookups *)
let keys_hit = Obs.Metrics.counter "dom.accel.keys.hit"
let keys_rebuild = Obs.Metrics.counter "dom.accel.keys.rebuild"
let index_hit = Obs.Metrics.counter "dom.accel.index.hit"
let index_rebuild = Obs.Metrics.counter "dom.accel.index.rebuild"
let value_index_rebuild = Obs.Metrics.counter "dom.value_index.rebuild"
let value_index_hits = Obs.Metrics.counter "dom.value_index.hits"
let delta_nodes = Obs.Metrics.counter "dom.delta.nodes"
let delta_relabels = Obs.Metrics.counter "dom.delta.relabels"
let delta_copies = Obs.Metrics.counter "dom.delta.copies"
let order_keyed = Obs.Metrics.counter "dom.order.keyed"
let order_path = Obs.Metrics.counter "dom.order.path"
let notify_batched = Obs.Metrics.counter "dom.notify.batched"
let lookup_by_id = Obs.Metrics.counter "dom.lookup.by-id"
let lookup_by_id_naive = Obs.Metrics.counter "dom.lookup.by-id.naive"
let lookup_by_name = Obs.Metrics.counter "dom.lookup.by-name"
let lookup_by_name_naive = Obs.Metrics.counter "dom.lookup.by-name.naive"

let accel_of r =
  match r.nside with
  | Rooted s -> s
  | Bare | Slotted _ ->
      let s =
        {
          rslot = slot r;
          observers = [];
          watch = Footprint.watch ();
          labelled = false;
          elems = None;
          attr_values = Hashtbl.create 4;
          text_values = Hashtbl.create 4;
          memos = [];
        }
      in
      r.nside <- Rooted s;
      s

let root_watch n = (accel_of (root n)).watch

(* Drop every cache of a record whose node joins another tree: that
   tree's caches take over its subtree, and these would be stale when
   the node is a root again. Observers and the watch stay. *)
let reset_caches s =
  s.labelled <- false;
  s.elems <- None;
  Hashtbl.reset s.attr_values;
  Hashtbl.reset s.text_values;
  s.memos <- []

(* [up] is [Some p] for the new parent [p]; builders share one box
   among all children of a parent *)
let link_up n up =
  n.nparent <- up;
  match n.nside with Rooted s -> reset_caches s | Bare | Slotted _ -> ()

let link n p = link_up n (Some p)

let rec string_value_rec n =
  match n.nkind with
  | P_text t -> t.tcontent
  | P_attribute a -> a.avalue
  | P_comment c -> c.ccontent
  | P_pi p -> p.pcontent
  | P_document _ | P_element _ -> (
      match children n with
      | [ { nkind = P_text t; _ } ] -> t.tcontent  (* no copy for one text child *)
      | cs ->
          String.concat ""
            (List.filter_map
               (fun c ->
                 match c.nkind with
                 | P_text _ | P_element _ -> Some (string_value_rec c)
                 | P_document _ | P_attribute _ | P_comment _ | P_pi _ -> None)
               cs))

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

(* ------------------------------------------------------------------ *)
(* Order labels.

   Labels are integers in [0, label_space), increasing in document
   order: a node, then its attributes, then its children's subtrees
   (the path comparison's order, where Attr_at sorts before Child_at).
   A full build spreads them evenly. A group of k nodes linked in one
   step takes k labels evenly spaced in the gap between its neighbours;
   when the gap is too narrow, the smallest aligned label range around
   it that stays under a density threshold is relabelled evenly. This is
   order maintenance after Dietz & Sleator (STOC 1987) and Bender et al.
   (ESA 2002), whose analysis bounds the relabelling at O(log n)
   amortized per insert. *)

let label_space = 1 lsl 61

let rec iter_preorder f n =
  f n;
  List.iter f (attributes n);
  List.iter (iter_preorder f) (children n)

let preorder n =
  let acc = ref [] in
  iter_preorder (fun x -> acc := x :: !acc) n;
  List.rev !acc

let node_count r =
  let count = ref 0 in
  iter_preorder (fun _ -> incr count) r;
  !count

(* A whole-tree build walks in document order, collecting each key's
   nodes; [seal] then cuts them into buckets. *)
let collect tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := n :: !l
  | None -> Hashtbl.replace tbl key (ref [ n ])

(* The whole-tree build: one pre-order walk of [r]'s tree that, with
   [labels], spreads labels evenly over its nodes and, with [elems],
   collects its elements by local-name symbol and by id value. *)
let walk r ~labels elems =
  let stride = if labels then label_space / (node_count r + 1) else 0 in
  let next = ref 0 in
  let label n =
    if labels then begin
      next := !next + stride;
      n.label <- !next
    end
  in
  let rec go n =
    label n;
    match n.nkind with
    | P_element e ->
        (match elems with
        | Some (_, by_name) -> collect by_name (e.ename.Qname.lsym :> int) n
        | None -> ());
        List.iter
          (fun a ->
            label a;
            match (elems, a.nkind) with
            | Some (by_id, _), P_attribute at when Sym.equal at.aname.Qname.lsym id_sym ->
                collect by_id at.avalue n
            | _ -> ())
          e.eattrs;
        List.iter go e.echildren
    | P_document d -> List.iter go d.dchildren
    | P_attribute _ | P_text _ | P_comment _ | P_pi _ -> ()
  in
  go r

let ensure_labels r s =
  if s.labelled then Obs.Metrics.incr keys_hit
  else begin
    Obs.Metrics.incr keys_rebuild;
    walk r ~labels:true None;
    s.labelled <- true
  end

(* Cursors over document order from a node, without sibling links: a
   stack of pending sibling lists, each ancestor level's list split
   once, when the cursor first reaches it. *)
type fwd = F_nodes of node list | F_after of node

(* [ref [F_after n]] yields the nodes after [n]'s subtree *)
let rec next_fwd st =
  match !st with
  | [] -> None
  | F_nodes [] :: rest ->
      st := rest;
      next_fwd st
  | F_nodes (x :: xs) :: rest ->
      st := F_nodes (attributes x) :: F_nodes (children x) :: F_nodes xs :: rest;
      Some x
  | F_after x :: rest ->
      (st :=
         match x.nparent with
         | None -> rest
         | Some p -> (
             let rec after = function
               | [] -> []
               | c :: cs -> if c == x then cs else after cs
             in
             match x.nkind with
             | P_attribute _ ->
                 F_nodes (after (attributes p)) :: F_nodes (children p) :: F_after p :: rest
             | _ -> F_nodes (after (children p)) :: F_after p :: rest));
      next_fwd st

type bwd = B_self of node | B_rev of node list | B_before of node

(* [ref [B_before n]] yields the nodes before [n], nearest first *)
let rec next_bwd st =
  match !st with
  | [] -> None
  | B_self x :: rest ->
      st := rest;
      Some x
  | B_rev [] :: rest ->
      st := rest;
      next_bwd st
  | B_rev (x :: xs) :: rest -> (
      (* [x]'s subtree backwards: its children's subtrees last first,
         its attributes last first, then [x] *)
      match (children x, attributes x) with
      | [], [] ->
          st := B_rev xs :: rest;
          Some x
      | cs, ats ->
          st := B_rev (List.rev cs) :: B_rev (List.rev ats) :: B_self x :: B_rev xs :: rest;
          next_bwd st)
  | B_before x :: rest ->
      (st :=
         match x.nparent with
         | None -> rest
         | Some p -> (
             let rec before acc = function
               | [] -> acc
               | c :: cs -> if c == x then acc else before (c :: acc) cs
             in
             match x.nkind with
             | P_attribute _ -> B_rev (before [] (attributes p)) :: B_self p :: B_before p :: rest
             | _ ->
                 B_rev (before [] (children p))
                 :: B_rev (List.rev (attributes p))
                 :: B_self p :: B_before p :: rest));
      next_bwd st

(* Bender et al.'s density threshold for a range of 2^i labels, with
   their tau = 3/2: it may hold at most (2/tau)^i labels. *)
let range_capacity i = Float.pow (4. /. 3.) (float_of_int i)

(* Label [fresh], the [k] nodes in document order of the subtrees
   [first] .. [last], just linked as consecutive siblings. *)
let place r ~first ~last fresh k =
  let label_of x = x.label in
  let bwd = ref [ B_before first ] and fwd = ref [ F_after last ] in
  let pred = next_bwd bwd and succ = next_fwd fwd in
  let lo = match pred with Some p -> label_of p | None -> 0 in
  let hi = match succ with Some x -> label_of x | None -> label_space in
  let spread base width nodes m =
    let step = width / (m + 1) in
    List.iteri (fun j x -> x.label <- base + ((j + 1) * step)) nodes
  in
  if hi - lo > k then spread lo (hi - lo) fresh k
  else begin
    (* grow an aligned range around [lo] until it is sparse enough,
       taking in its labelled nodes from both sides *)
    let left = ref (Option.to_list pred) and right = ref [] in
    let nleft = ref (List.length !left) and nright = ref 0 in
    let before = ref (next_bwd bwd) and after = ref succ in
    let rec grow i =
      if i > 61 then begin
        (* past ~4e7 nodes: relabel the whole tree *)
        walk r ~labels:true None;
        Obs.Metrics.add delta_relabels (node_count r)
      end
      else begin
        let width = 1 lsl i in
        let base = lo land lnot (width - 1) in
        let rec take_left () =
          match !before with
          | Some x when label_of x >= base ->
              left := x :: !left;
              incr nleft;
              before := next_bwd bwd;
              take_left ()
          | _ -> ()
        in
        let rec take_right () =
          match !after with
          | Some x when label_of x < base + width ->
              right := x :: !right;
              incr nright;
              after := next_fwd fwd;
              take_right ()
          | _ -> ()
        in
        take_left ();
        take_right ();
        let m = !nleft + k + !nright in
        if float_of_int m <= range_capacity i then begin
          spread base width (!left @ fresh @ List.rev !right) m;
          Obs.Metrics.add delta_relabels (!nleft + !nright)
        end
        else grow (i + 1)
      end
    in
    grow 1
  end

(* ------------------------------------------------------------------ *)
(* Buckets: the nodes of one index key, sorted by label *)

let chunk_max = 64

(* the nodes of [l], in document order *)
let bucket_of_list l =
  let a = Array.of_list l in
  let n = Array.length a in
  let chunk c = Array.sub a (c * chunk_max) (min chunk_max (n - (c * chunk_max))) in
  { chunks = Array.init ((n + chunk_max - 1) / chunk_max) chunk; listed = None }

let bucket_list b =
  match b.listed with
  | Some l -> l
  | None ->
      let l = Array.fold_right (fun c acc -> Array.fold_right List.cons c acc) b.chunks [] in
      b.listed <- Some l;
      l

(* the chunk that holds, or would take, label [k]: the last one whose
   first label is at most [k], or the first *)
let chunk_index b k =
  let lo = ref 0 and hi = ref (Array.length b.chunks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) lsr 1 in
    if b.chunks.(mid).(0).label <= k then lo := mid else hi := mid - 1
  done;
  !lo

(* the first position in chunk [c] labelled [k] or later *)
let lower_bound c k =
  let lo = ref 0 and hi = ref (Array.length c) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if c.(mid).label < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* [b]'s chunks with chunk [i] replaced by [cs] *)
let splice b i cs =
  let n = Array.length b.chunks in
  b.chunks <- Array.concat [ Array.sub b.chunks 0 i; cs; Array.sub b.chunks (i + 1) (n - i - 1) ]

(* A bucket in a table is never empty: [entry] drops it with its last
   node. *)

let bucket_add b n =
  b.listed <- None;
  let k = n.label in
  let ci = chunk_index b k in
  let c = b.chunks.(ci) in
  let len = Array.length c and i = lower_bound c k in
  Obs.Metrics.add delta_copies len;
  let c' = Array.make (len + 1) n in
  Array.blit c 0 c' 0 i;
  Array.blit c i c' (i + 1) (len - i);
  if len < chunk_max then b.chunks.(ci) <- c'
  else
    let h = (len + 1) / 2 in
    splice b ci [| Array.sub c' 0 h; Array.sub c' h (len + 1 - h) |]

let bucket_remove b n =
  let k = n.label in
  let ci = chunk_index b k in
  let c = b.chunks.(ci) in
  let len = Array.length c in
  let i = ref (lower_bound c k) in
  while !i < len && c.(!i) != n do incr i done;
  if !i < len then begin
    b.listed <- None;
    Obs.Metrics.add delta_copies (len - 1);
    if len = 1 then splice b ci [||]
    else
      let i = !i in
      b.chunks.(ci) <- Array.init (len - 1) (fun j -> if j < i then c.(j) else c.(j + 1))
  end

(* add [n] to, or remove it from, the bucket of [key] *)
let entry ~add tbl key n =
  match (Hashtbl.find_opt tbl key, add) with
  | Some b, _ ->
      (if add then bucket_add else bucket_remove) b n;
      if Array.length b.chunks = 0 then Hashtbl.remove tbl key
  | None, true -> Hashtbl.replace tbl key { chunks = [| [| n |] |]; listed = None }
  | None, false -> ()

let seal tbl =
  let t = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
  Hashtbl.iter (fun k l -> Hashtbl.replace t k (bucket_of_list (List.rev !l))) tbl;
  t

(* An element's text key: its string value, when it is flat. *)
let flat_key n =
  let cs = children n in
  if List.exists (fun c -> match c.nkind with P_element _ -> true | _ -> false) cs then None
  else
    Some
      (String.concat ""
         (List.filter_map
            (fun c -> match c.nkind with P_text t -> Some t.tcontent | _ -> None)
            cs))

(* [n]'s text entry, from its current children: removed before they or
   their text change, added back after *)
let text_entry ~add ti n =
  match flat_key n with
  | Some k -> entry ~add ti.tvals k n
  | None -> ti.complex <- (if add then ti.complex + 1 else ti.complex - 1)

(* [f] on every element of [n]'s subtree (inclusive), with its name,
   in document order; closure-free, so the walk allocates nothing *)
let rec iter_elements f n =
  (match n.nkind with P_element el -> f n el.ename | _ -> ());
  iter_elements_in f (children n)

and iter_elements_in f = function
  | c :: rest ->
      iter_elements f c;
      iter_elements_in f rest
  | [] -> ()

let rec iter_attributes_in f = function
  | { nkind = P_attribute a; _ } :: rest ->
      f a.aname a.avalue;
      iter_attributes_in f rest
  | _ :: rest -> iter_attributes_in f rest
  | [] -> ()

let iter_attributes f el = iter_attributes_in f (attributes el)

(* [f] on the value of every attribute of [el] named [lsym] *)
let iter_attr_values f el (lsym : Sym.t) =
  List.iter
    (fun a ->
      match a.nkind with
      | P_attribute at when Sym.equal at.aname.Qname.lsym lsym -> f at.avalue
      | _ -> ())
    (attributes el)

(* Whole-tree builds *)

(* the element buckets, and the labels if no order read built them, in
   one walk *)
let build_elems r s =
  Obs.Metrics.incr index_rebuild;
  if not s.labelled then Obs.Metrics.incr keys_rebuild;
  let by_id = Hashtbl.create 64 and by_name = Hashtbl.create 64 in
  walk r ~labels:(not s.labelled) (Some (by_id, by_name));
  s.labelled <- true;
  let e = { by_id = seal by_id; by_name = seal by_name } in
  s.elems <- Some e;
  e

let build_attr_values r (lsym : Sym.t) =
  Obs.Metrics.incr value_index_rebuild;
  let t = Hashtbl.create 64 in
  iter_elements (fun n _ -> iter_attr_values (fun v -> collect t v n) n lsym) r;
  seal t

let build_text_values r (lsym : Sym.t) =
  Obs.Metrics.incr value_index_rebuild;
  let t = Hashtbl.create 64 and complex = ref 0 in
  iter_elements
    (fun n name ->
      if Sym.equal name.Qname.lsym lsym then
        match flat_key n with Some k -> collect t k n | None -> incr complex)
    r;
  { tvals = seal t; complex = !complex }

let elems_of r s =
  match s.elems with
  | Some e ->
      Obs.Metrics.incr index_hit;
      e
  | None -> build_elems r s

(* a value probe is a probe: the tree's first builds the element
   buckets with the labels *)
let ensure_elems r s = if Option.is_none s.elems then ignore (build_elems r s)

let attr_values_of r s (lsym : Sym.t) =
  match Hashtbl.find_opt s.attr_values (lsym :> int) with
  | Some t -> t
  | None ->
      ensure_elems r s;
      let t = build_attr_values r lsym in
      Hashtbl.replace s.attr_values (lsym :> int) t;
      t

let text_values_of r s (lsym : Sym.t) =
  match Hashtbl.find_opt s.text_values (lsym :> int) with
  | Some ti -> ti
  | None ->
      ensure_elems r s;
      let ti = build_text_values r lsym in
      Hashtbl.replace s.text_values (lsym :> int) ti;
      ti

(* ------------------------------------------------------------------ *)
(* Document order *)

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
                | [] -> assert false (* a node is in its parent's lists *)
                | a :: _ when a == n -> i
                | _ :: rest -> idx (i + 1) rest
              in
              Attr_at (idx 0 (attributes p))
          | _ ->
              let rec idx i = function
                | [] -> assert false
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
    else if Ablation.current.acceleration then begin
      ensure_labels ra (accel_of ra);
      if a.label >= 0 && b.label >= 0 then begin
        Obs.Metrics.incr order_keyed;
        Int.compare a.label b.label
      end
      else begin
        Obs.Metrics.incr order_path;
        compare_paths a b
      end
    end
    else begin
      Obs.Metrics.incr order_path;
      compare_paths a b
    end

let order_key n =
  if not Ablation.current.acceleration then None
  else
    let r = root n in
    ensure_labels r (accel_of r);
    if n.label >= 0 then Some (r.nid, n.label) else None

let is_ancestor ~ancestor n =
  let rec go n =
    match n.nparent with
    | None -> false
    | Some p -> p == ancestor || go p
  in
  go n

let equal a b = a == b

(* ------------------------------------------------------------------ *)
(* Subtree memos: tables the layers above keep on the per-root record,
   one per client key, mapping a node to a value derived from its
   subtree. A write marks the entries on its chain with what it
   changed under them (see [mark_memos]) and drops the entries of the
   nodes it unlinks, so an entry found unmarked is current. *)

(* the tables a tree keeps; a new key drops the oldest beyond these *)
let memo_tables_kept = 8

let memo_table n key =
  let s = accel_of (root n) in
  match List.assoc_opt key s.memos with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 64 in
      s.memos <- (key, t) :: List.filteri (fun i _ -> i < memo_tables_kept - 1) s.memos;
      t

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

(* Observer notifications queue while a batch is open (one PUL apply =
   one coherent post-apply changeset) and flush, in mutation order, when
   the outermost batch closes. Cache upkeep stays immediate. *)
let batch_depth = ref 0
let batch_queue : (node * mutation) list ref = ref []

let deliver r mutation =
  match r.nside with
  | Rooted s -> List.iter (fun o -> o.callback mutation) s.observers
  | Bare | Slotted _ -> ()

(* An observer that raises (a navigation whose page does not parse)
   does not stop the others: every notification is delivered, then the
   first exception is raised as itself. *)
let rec deliver_all = function
  | [] -> ()
  | (r, m) :: rest -> (
      match deliver r m with
      | () -> deliver_all rest
      | exception e ->
          deliver_all rest;
          raise e)

let with_batch f =
  incr batch_depth;
  let close () =
    decr batch_depth;
    if !batch_depth = 0 then begin
      let q = List.rev !batch_queue in
      batch_queue := [];
      Fun.protect ~finally:Footprint.commit (fun () -> deliver_all q)
    end
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* ------------------------------------------------------------------ *)
(* Write upkeep.

   A mutation is one write: [begin_write] at its mutation point (the
   node whose children, attributes, value or name change), then each
   structural step followed by the upkeep of what it linked or
   unlinked, then [end_write]. The upkeep of a linked or unlinked
   subtree is one walk that updates every cache the root keeps — labels,
   id and name buckets, the value buckets of the names probed so far,
   memos — and feeds the footprint write record the local names, ids
   and attribute keys it touched. The record's chain is the mutation
   point's ancestor-or-self chain, whose memos [begin_write] marks. A
   tree with no caches and no registered footprint does no upkeep. *)

type write = {
  wroot : node;
  ws : accel option;  (* the written root's record, if it has one *)
  wfp : Footprint.wrec option;  (* the footprint write record, if captured *)
}

(* the children an entry records in [through]; a write through one
   more drops the entry instead *)
let through_kept = 16

(* [p]'s entry in [t], if it has one, records that a write came
   through its child [child] *)
let mark_through t p child =
  match Hashtbl.find_opt t p.nid with
  | Some e ->
      if not (List.memq child e.through) then
        if List.compare_length_with e.through through_kept < 0 then
          e.through <- child :: e.through
        else Hashtbl.remove t p.nid
  | None -> ()

(* The entry of the mutation point records that the node itself
   changed; each ancestor's records the child the write came through,
   once, and an attribute's owner counts as changed itself. *)
let mark_memos s point =
  List.iter
    (fun (_, t) ->
      (match Hashtbl.find_opt t point.nid with Some e -> e.changed <- true | None -> ());
      let rec up child =
        match child.nparent with
        | None -> ()
        | Some p ->
            (match child.nkind with
            | P_attribute _ -> (
                match Hashtbl.find_opt t p.nid with Some e -> e.changed <- true | None -> ())
            | _ -> mark_through t p child);
            up p
      in
      up point)
    s.memos

let begin_write ?(capture = true) point =
  let r = root point in
  match r.nside with
  | Bare | Slotted _ -> { wroot = r; ws = None; wfp = None }
  | Rooted s ->
      if s.memos <> [] then mark_memos s point;
      let wfp =
        if capture && Footprint.capturing s.watch then
          Some
            (Footprint.fresh_wrec
               ~chain:(point.nid :: List.map (fun a -> a.nid) (ancestors point)))
        else None
      in
      { wroot = r; ws = Some s; wfp }

let end_write w mutation =
  (match w.ws with
  | Some s ->
      Option.iter (Footprint.record_write s.watch) w.wfp;
      if s.observers != [] then
        if !batch_depth > 0 then begin
          Obs.Metrics.incr notify_batched;
          batch_queue := (w.wroot, mutation) :: !batch_queue
        end
        else deliver w.wroot mutation
  | None -> ());
  if !batch_depth = 0 then Footprint.commit ()

let fp_name w (name : Qname.t) =
  Option.iter (fun r -> Footprint.add_wname r name.Qname.lsym) w.wfp

let fp_attr w (aname : Qname.t) v =
  Option.iter
    (fun r ->
      Footprint.add_wkey r ~local:aname.Qname.lsym v;
      if Sym.equal aname.Qname.lsym id_sym then Footprint.add_wid r v)
    w.wfp

(* The index entry of attribute [aname = v] on element [owner]: in
   the id buckets for "id", else in the name's value buckets. *)
let attr_entries s ~add owner (aname : Qname.t) v =
  let lsym = aname.Qname.lsym in
  let values =
    if Sym.equal lsym id_sym then Option.map (fun e -> e.by_id) s.elems
    else Hashtbl.find_opt s.attr_values (lsym :> int)
  in
  Option.iter (fun t -> entry ~add t v owner) values

(* An element's own entries: under its name, and its text. *)
let element_entries s ~add e (ename : Qname.t) =
  let key = (ename.Qname.lsym :> int) in
  (match s.elems with Some x -> entry ~add x.by_name key e | None -> ());
  match Hashtbl.find_opt s.text_values key with
  | Some ti -> text_entry ~add ti e
  | None -> ()

(* The subtrees [group] were just linked as consecutive siblings. *)
let linked w group =
  match w.ws with
  | None -> ()
  | Some s -> (
      let note x =
        match x.nkind with
        | P_element el ->
            fp_name w el.ename;
            if s.labelled then element_entries s ~add:true x el.ename
        | P_attribute a -> (
            fp_attr w a.aname a.avalue;
            match x.nparent with
            | Some owner when s.labelled -> attr_entries s ~add:true owner a.aname a.avalue
            | _ -> ())
        | _ -> ()
      in
      match group with
      | first :: rest when s.labelled ->
          let fresh = List.concat_map preorder group in
          let k = List.length fresh in
          let last = List.fold_left (fun _ x -> x) first rest in
          place w.wroot ~first ~last fresh k;
          Obs.Metrics.add delta_nodes k;
          List.iter note fresh
      | _ when w.wfp <> None -> List.iter (iter_preorder note) group
      | _ -> ())

(* [n]'s subtree was just unlinked from [from]. A child that leaves is
   a write through it: [from]'s entries record it in [through], so a
   memo that still holds it, unchanged by node identity, is not reused
   if it comes back (its subtree can be written while it is away, and
   nothing marks that). *)
let unlinked w ~from n =
  match w.ws with
  | None -> ()
  | Some s ->
      (match n.nkind with
      | P_attribute _ -> ()
      | _ -> List.iter (fun (_, t) -> mark_through t from n) s.memos);
      let labelled = s.labelled in
      if labelled || s.memos <> [] || w.wfp <> None then begin
        let count = ref 0 in
        (* a node's label goes after its entries and its attributes'
           entries, whose buckets are searched by label *)
        let unlabel x =
          incr count;
          if labelled then x.label <- -1;
          List.iter (fun (_, t) -> Hashtbl.remove t x.nid) s.memos
        in
        let forget_attr owner a =
          match a.nkind with
          | P_attribute at ->
              fp_attr w at.aname at.avalue;
              if labelled then attr_entries s ~add:false owner at.aname at.avalue;
              unlabel a
          | _ -> ()
        in
        let rec forget x =
          (match x.nkind with
          | P_element el ->
              fp_name w el.ename;
              if labelled then element_entries s ~add:false x el.ename;
              List.iter (forget_attr x) el.eattrs
          | _ -> ());
          unlabel x;
          List.iter forget (children x)
        in
        (match n.nkind with P_attribute _ -> forget_attr from n | _ -> forget n);
        Obs.Metrics.add delta_nodes !count
      end

(* Change [e]'s children or their text with [f], moving its text
   entry. *)
let retext w e f =
  let entries ~add =
    match (w.ws, e.nkind) with
    | Some ({ labelled = true; _ } as s), P_element el -> (
        match Hashtbl.find_opt s.text_values (el.ename.Qname.lsym :> int) with
        | Some ti -> text_entry ~add ti e
        | None -> ())
    | _ -> ()
  in
  entries ~add:false;
  f ();
  entries ~add:true

(* Change attribute [a]'s name or value with [f], moving its entries. *)
let rekey_attr w a f =
  let entries ~add =
    match a.nkind with
    | P_attribute at -> (
        fp_attr w at.aname at.avalue;
        match (w.ws, a.nparent) with
        | Some ({ labelled = true; _ } as s), Some owner ->
            attr_entries s ~add owner at.aname at.avalue
        | _ -> ())
    | _ -> ()
  in
  entries ~add:false;
  f ();
  entries ~add:true

(* Refusals. Each mutator runs its check before it touches anything (no
   unlink, no write record, no memo mark), so a refused write changes
   nothing. *)

let is_child_of p c =
  match (c.nparent, c.nkind) with
  | None, _ | _, P_attribute _ -> false
  | Some q, _ -> q == p

let check_child_kind n =
  match n.nkind with
  | P_attribute _ | P_document _ -> refuse (Child_kind (kind n))
  | P_element _ | P_text _ | P_comment _ | P_pi _ -> ()

(* [p] takes children, and no node of [group] is [p] or one of its
   ancestors: one walk up from [p] *)
let check_parent p group =
  (match p.nkind with
  | P_element _ | P_document _ -> ()
  | P_attribute _ | P_text _ | P_comment _ | P_pi _ -> refuse (Childless (kind p)));
  let rec up = function
    | Some a when List.memq a group -> refuse Cycle
    | Some a -> up a.nparent
    | None -> ()
  in
  up (Some p)

type anchor = Last_of of node | First_of of node | Before of node | After of node

(* The parent [group] goes under at [anchor], once the write is known to
   be accepted: a sibling anchor's parent is [parent] when one is named,
   else its own. *)
let insertion_parent ?parent anchor group =
  let p =
    match (anchor, parent) with
    | (Last_of p | First_of p), _ | (Before _ | After _), Some p -> p
    | (Before s | After s), None -> (
        match s.nparent with Some p -> p | None -> refuse Parentless)
  in
  check_parent p group;
  (match anchor with
  | (Before s | After s) when not (is_child_of p s) -> refuse Not_a_child
  | Last_of _ | First_of _ | Before _ | After _ -> ());
  List.iter check_child_kind group;
  p

let check_insert ?parent anchor group = ignore (insertion_parent ?parent anchor group)

(* The parent of the node [n] that [replacements] replace, once the
   write is known to be accepted: an attribute is replaced by
   attributes, a child by children. *)
let replacement_parent ?parent n replacements =
  match (n.nparent, n.nkind, parent) with
  | None, _, None -> refuse Parentless
  | Some p, P_attribute _, None ->
      List.iter
        (fun r ->
          match r.nkind with
          | P_attribute _ -> ()
          | _ -> refuse (Replacement_kind { target = Attribute; by = kind r }))
        replacements;
      p
  | _, _, Some p | Some p, _, None ->
      check_parent p replacements;
      if not (is_child_of p n) then refuse Not_a_child;
      List.iter
        (fun r ->
          match r.nkind with
          | P_attribute _ -> refuse (Replacement_kind { target = kind n; by = Attribute })
          | _ -> check_child_kind r)
        replacements;
      p

let check_replace ?parent n replacements = ignore (replacement_parent ?parent n replacements)

let check_rename n =
  match n.nkind with
  | P_element _ | P_attribute _ | P_pi _ -> ()
  | P_document _ | P_text _ | P_comment _ -> refuse (Rename_kind (kind n))

let check_owner el =
  match el.nkind with
  | P_element _ -> ()
  | P_document _ | P_attribute _ | P_text _ | P_comment _ | P_pi _ ->
      refuse (Owner_kind (kind el))

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)

let set_children parent cs =
  match parent.nkind with
  | P_document d -> d.dchildren <- cs
  | P_element e -> e.echildren <- cs
  | P_attribute _ | P_text _ | P_comment _ | P_pi _ -> assert false (* [check_parent] *)

(* Unlink [n] from its parent, if it has one, with the upkeep of the
   tree it leaves: as part of [w] when given, else as a write of its
   own that records no footprint (a move records the subtree where it
   lands) and notifies nobody. *)
let detach ?w n =
  match n.nparent with
  | None -> ()
  | Some p ->
      let w = match w with Some w -> w | None -> begin_write ~capture:false p in
      (match n.nkind with
      | P_attribute _ -> (
          match p.nkind with
          | P_element e -> e.eattrs <- List.filter (fun a -> a != n) e.eattrs
          | _ -> ())
      | _ ->
          (* the cells after [n] are kept: a render memo reusing the
             children after it finds them unchanged *)
          let[@tail_mod_cons] rec without = function
            | [] -> []
            | c :: rest -> if c == n then rest else c :: without rest
          in
          retext w p (fun () -> set_children p (without (children p))));
      n.nparent <- None;
      unlinked w ~from:p n

(* Unlink every node of [group] that has a parent, as [detach] does
   (one write per old parent, which records no footprint and notifies
   nobody), in one pass over each old parent's child list however many
   of its children leave: a leaving node is marked by its cleared
   parent. The nodes are children, not attributes. *)
let detach_group group =
  let parents =
    List.fold_left
      (fun ps n -> match n.nparent with Some p when not (List.memq p ps) -> p :: ps | _ -> ps)
      [] group
  in
  List.iter
    (fun p ->
      let w = begin_write ~capture:false p in
      let leaving =
        List.filter (fun n -> match n.nparent with Some q -> q == p | None -> false) group
      in
      retext w p (fun () ->
          List.iter (fun n -> n.nparent <- None) leaving;
          set_children p (List.filter (fun c -> c.nparent != None) (children p)));
      List.iter (unlinked w ~from:p) leaving)
    (List.rev parents)

let remove ?parent n =
  (match parent with Some p when not (is_child_of p n) -> refuse Not_a_child | _ -> ());
  match n.nparent with
  | None -> ()
  | Some p ->
      let w = begin_write p in
      detach ~w n;
      end_write w
        (match n.nkind with
        | P_attribute a -> Attribute_changed (p, a.aname)
        | _ -> Children_changed p)

(* Make the nodes [group] consecutive children of [parent], at the
   place [weave] gives them in the child list: one write, so one pass
   over the child list, one placement of all their labels and one
   notification however many nodes the group holds. *)
let insert_children parent group weave =
  detach_group group;
  let w = begin_write parent in
  retext w parent (fun () ->
      set_children parent (weave (children parent));
      let up = Some parent in
      List.iter (fun n -> link_up n up) group);
  linked w group;
  end_write w (Children_changed parent)

(* A sibling anchor that is itself in [group] stands for the place it
   holds: before the first sibling after it outside the group, or at the
   end of [p] (the DOM's pre-insert: "if child is node, set child to
   node's next sibling"). *)
let resolve_anchor p anchor group =
  match anchor with
  | (Before s | After s) when List.memq s group -> (
      let rec after_s = function
        | c :: rest -> if c == s then rest else after_s rest
        | [] -> []
      in
      match List.find_opt (fun c -> not (List.memq c group)) (after_s (children p)) with
      | Some c -> Before c
      | None -> Last_of p)
  | _ -> anchor

let insert_nodes ?parent anchor group =
  let p = insertion_parent ?parent anchor group in
  let anchor = resolve_anchor p anchor group in
  (* [at sibling k] weaves the group in at [sibling], which stays among
     the children; [k sibling rest] is the child list from [sibling] on *)
  let at sibling k =
    let rec weave = function
      | [] -> assert false (* [sibling] is a child of [p] outside the group *)
      | c :: rest when c == sibling -> k c rest
      | c :: rest -> c :: weave rest
    in
    weave
  in
  if group <> [] then
    insert_children p group
      (match anchor with
      | Last_of _ -> fun cs -> cs @ group
      | First_of _ -> fun cs -> group @ cs
      | Before s -> at s (fun c rest -> group @ (c :: rest))
      | After s -> at s (fun c rest -> c :: (group @ rest)))

let append_child ~parent n = insert_nodes (Last_of parent) [ n ]
let insert_first ~parent n = insert_nodes (First_of parent) [ n ]
let insert_before ~sibling n = insert_nodes (Before sibling) [ n ]
let insert_after ~sibling n = insert_nodes (After sibling) [ n ]

let replace ?parent n replacements =
  let p = replacement_parent ?parent n replacements in
  match n.nkind with
  | P_attribute a ->
      let w = begin_write p in
      detach ~w n;
      List.iter
        (fun r ->
          detach r;
          (match p.nkind with P_element e -> e.eattrs <- e.eattrs @ [ r ] | _ -> assert false);
          link r p;
          linked w [ r ])
        replacements;
      end_write w (Attribute_changed (p, a.aname))
  | _ ->
      (* replacements leave their parents first; [n] may be one *)
      detach_group (List.filter (fun r -> r != n) replacements);
      let rec weave = function
        | [] -> assert false (* [n] is a child of [p] *)
        | c :: rest when c == n -> replacements @ rest
        | c :: rest -> c :: weave rest
      in
      let cs = weave (children p) in
      let w = begin_write p in
      retext w p (fun () ->
          set_children p cs;
          n.nparent <- None;
          List.iter (fun r -> link r p) replacements);
      unlinked w ~from:p n;
      linked w replacements;
      end_write w (Children_changed p)

(* Make the parentless nodes [group] the whole child list of [n], as
   part of write [w]: the old children are unlinked in one pass ([detach]
   would re-filter the child list once per child). *)
let swap_children w n group =
  let old = children n in
  retext w n (fun () ->
      set_children n group;
      let up = Some n in
      List.iter (fun c -> link_up c up) group);
  List.iter
    (fun c ->
      c.nparent <- None;
      unlinked w ~from:n c)
    old;
  linked w group

let set_value n v =
  let w = begin_write n in
  (match n.nkind with
  | P_attribute a -> rekey_attr w n (fun () -> a.avalue <- v)
  | P_text t -> (
      (* text content feeds the parent element's text entry *)
      match n.nparent with
      | Some ({ nkind = P_element e; _ } as p) ->
          fp_name w e.ename;
          retext w p (fun () -> t.tcontent <- v)
      | _ -> t.tcontent <- v)
  | P_comment c -> c.ccontent <- v
  | P_pi p -> p.pcontent <- v
  | P_element _ | P_document _ ->
      (* replaceElementContent: the new text is the whole content; the
         element's own text entry changes *)
      (match n.nkind with P_element e -> fp_name w e.ename | _ -> ());
      swap_children w n [ create_text v ]);
  end_write w (Value_changed n)

let replace_children parent group =
  check_insert (Last_of parent) group;
  detach_group group;
  let w = begin_write parent in
  swap_children w parent group;
  end_write w (Children_changed parent)

let rename n qn =
  check_rename n;
  let w = begin_write n in
  (match n.nkind with
  | P_element e ->
      let entries ~add =
        fp_name w e.ename;
        match w.ws with
        | Some ({ labelled = true; _ } as s) -> element_entries s ~add n e.ename
        | _ -> ()
      in
      entries ~add:false;
      e.ename <- qn;
      entries ~add:true
  | P_attribute a -> rekey_attr w n (fun () -> a.aname <- qn)
  | P_pi p -> p.target <- qn.Qname.local
  | P_document _ | P_text _ | P_comment _ -> assert false);
  end_write w (Renamed n)

let set_attribute el qn v =
  check_owner el;
  match el.nkind with
  | P_element e ->
      let w = begin_write el in
      (match
         List.find_opt
           (fun a ->
             match a.nkind with
             | P_attribute { aname; _ } -> Qname.equal aname qn
             | _ -> false)
           e.eattrs
       with
      | Some ({ nkind = P_attribute r; _ } as a) -> rekey_attr w a (fun () -> r.avalue <- v)
      | _ ->
          let a = create_attribute qn v in
          e.eattrs <- e.eattrs @ [ a ];
          link a el;
          linked w [ a ]);
      end_write w (Attribute_changed (el, qn))
  | _ -> assert false

let remove_attribute el qn =
  check_owner el;
  match el.nkind with
  | P_element e ->
      let w = begin_write el in
      let gone, kept =
        List.partition
          (fun a ->
            match a.nkind with
            | P_attribute { aname; _ } -> Qname.equal aname qn
            | _ -> false)
          e.eattrs
      in
      e.eattrs <- kept;
      List.iter
        (fun a ->
          a.nparent <- None;
          unlinked w ~from:el a)
        gone;
      end_write w (Attribute_changed (el, qn))
  | _ -> assert false

let append_attributes ~parent attrs =
  check_owner parent;
  let name a =
    match a.nkind with
    | P_attribute { aname; _ } -> aname
    | _ -> invalid_arg "Dom.append_attributes: not an attribute"
  in
  match (parent.nkind, attrs) with
  | _, [] -> ()
  | P_element e, first :: _ ->
      let aname = name first in
      List.iter (fun a -> ignore (name a)) attrs;
      List.iter (fun a -> detach a) attrs;
      let w = begin_write parent in
      e.eattrs <- e.eattrs @ attrs;
      let up = Some parent in
      List.iter (fun a -> link_up a up) attrs;
      linked w attrs;
      end_write w (Attribute_changed (parent, aname))
  | _ -> assert false

let append_attribute ~parent a = append_attributes ~parent [ a ]

(* ------------------------------------------------------------------ *)
(* One-pass construction of fresh trees.

   A node created inside the building call has no per-root record, so
   no caches, no observers and no registered footprints, and a write
   would have nothing to do for it: the builders map each child list
   once and set parent pointers directly instead of appending child by
   child. [of_tree] and [clone] allocate every node before its
   attributes and its content, so their ids follow pre-order; [fill]
   links nodes its caller built earlier, whose ids need not. Only a
   root's id matters to cross-tree [compare_order], and every builder
   allocates its root first. *)

(* [f] over [xs] in order, each result made a child of [parent] *)
let adopt_map parent f xs =
  let up = Some parent in
  List.map
    (fun x ->
      let c = f x in
      link_up c up;
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

let rec parentless_attributes = function
  | [] -> true
  | { nparent = None; nkind = P_attribute _; _ } :: rest -> parentless_attributes rest
  | _ -> false

let rec parentless_children = function
  | [] -> true
  | { nparent = None; nkind = P_element _ | P_text _ | P_comment _ | P_pi _; _ } :: rest ->
      parentless_children rest
  | _ -> false

let rec link_all up = function
  | [] -> ()
  | c :: rest ->
      link_up c up;
      link_all up rest

let fill n ~attrs kids =
  if
    not
      ((match (n.nparent, n.nkind, attrs) with
       | None, P_element { echildren = []; _ }, _ | None, P_document { dchildren = []; _ }, [] ->
           true
       | _ -> false)
      && parentless_attributes attrs && parentless_children kids)
  then invalid_arg "Dom.fill";
  (* the lists are immutable: the node keeps the ones it was given *)
  (match (attrs, kids) with
  | [], [] -> ()
  | _ -> (
      let up = Some n in
      link_all up attrs;
      link_all up kids;
      match n.nkind with
      | P_element e ->
          e.eattrs <- e.eattrs @ attrs;
          e.echildren <- kids
      | _ -> set_children n kids));
  (* caches someone built while [n] was empty are stale now *)
  match n.nside with Rooted s -> reset_caches s | Bare | Slotted _ -> ()

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

(* [up] is the parent box of every node of [cs] *)
let rec link_children up = function
  | c :: rest ->
      c.nparent <- up;
      link_children up rest
  | [] -> ()

(* Parsing builds the DOM in one pass: the scanner hands each node to
   the builder below as it meets it, which creates it once and links it
   to its parent once, when the parent closes. A node also takes its
   order label as it is made — the element, then its attributes, then
   its content, the pre-order of [walk] — so the tree starts labelled
   and its first probe builds only buckets.

   The labels are the multiples of [stride] from the document's on. A
   tree has at most one node per source byte, plus its document node:
   every element, attribute, text, comment and processing instruction
   takes at least one byte of the source that no other node takes (a
   boolean attribute " b", one entity in a text, an empty CDATA section
   are the densest). So with [stride = label_space / (len + 2)], the
   last label, at most [(len + 1) * stride], stays below
   [label_space]. *)
type labeller = { stride : int; mutable last : int }

let label l n =
  l.last <- l.last + l.stride;
  n.label <- l.last;
  n

(* the attribute nodes of [attrs], labelled in order, each with the
   parent box [up] *)
let[@tail_mod_cons] rec attribute_nodes l up = function
  | { Xml_parser.name; value } :: rest ->
      let a = label l (fresh (P_attribute { aname = name; avalue = value })) in
      a.nparent <- up;
      a :: attribute_nodes l up rest
  | [] -> []

let of_string ?options src =
  let doc = create_document () in
  let l = { stride = label_space / (String.length src + 2); last = 0 } in
  ignore (label l doc);
  let builder =
    {
      Xml_parser.open_ =
        (fun name attrs ->
          let el = label l (fresh (P_element { ename = name; eattrs = []; echildren = [] })) in
          let up = Some el in
          (match (attrs, el.nkind) with
          | [], _ -> ()
          | _, P_element e -> e.eattrs <- attribute_nodes l up attrs
          | _ -> assert false);
          up);
      close =
        (fun up children ->
          match up with
          | Some ({ nkind = P_element e; _ } as el) ->
              link_children up children;
              e.echildren <- children;
              el
          | _ -> assert false);
      text = (fun t -> label l (fresh (P_text { tcontent = t })));
      comment = (fun c -> label l (fresh (P_comment { ccontent = c })));
      pi = (fun target data -> label l (fresh (P_pi { target; pcontent = data })));
    }
  in
  let children = Xml_parser.build builder ?options src in
  link_children (Some doc) children;
  set_children doc children;
  (accel_of doc).labelled <- true;
  doc

(* Serialization writes the nodes' payloads straight into one buffer.
   Namespace fixup emits the xmlns declarations that make a reparse
   resolve every name to the same URI; [scope] maps each prefix in
   force to its URI ("" the default namespace). A name with no prefix
   and no URI, outside any default namespace, with only unprefixed
   attributes, needs no declaration and leaves the scope as it is, so
   the common element costs no allocation. *)
module Smap = Map.Make (String)

let prefix_key (q : Qname.t) = match q.Qname.prefix with Some p -> p | None -> ""
let uri_key (q : Qname.t) = match q.Qname.uri with Some u -> u | None -> ""
let unprefixed (q : Qname.t) =
  match q.Qname.prefix with None | Some "" -> true | Some _ -> false

let is_literal_xmlns (q : Qname.t) =
  match q.Qname.prefix with
  | Some "xmlns" -> true
  | None -> q.Qname.local = "xmlns"
  | Some _ -> false

let attr_name a = match a.nkind with P_attribute at -> at.aname | _ -> assert false

(* the declarations [name] and [attrs] need, in order, and the scope
   under the element *)
let needed_declarations scope name attrs =
  let need = ref [] and scope = ref scope in
  let check ~is_attr (q : Qname.t) =
    let p = prefix_key q and u = uri_key q in
    (* unprefixed attributes are in no namespace: nothing to declare *)
    if not (is_attr && p = "") then
      let bound = Option.value ~default:"" (Smap.find_opt p !scope) in
      if bound <> u && not (p = "xml" || p = "xmlns") && not (List.mem_assoc p !need) then begin
        need := (p, u) :: !need;
        scope := Smap.add p u !scope
      end
  in
  check ~is_attr:false name;
  List.iter (fun a -> check ~is_attr:true (attr_name a)) attrs;
  (List.rev !need, !scope)

let add_qname buf (q : Qname.t) =
  (match q.Qname.prefix with
  | Some p when p <> "" ->
      Buffer.add_string buf p;
      Buffer.add_char buf ':'
  | _ -> ());
  Buffer.add_string buf q.Qname.local

let add_spaces buf k =
  for _ = 1 to k do
    Buffer.add_char buf ' '
  done

let add_attribute buf name value =
  Buffer.add_char buf ' ';
  add_qname buf name;
  Buffer.add_string buf "=\"";
  Xml_escape.add_attribute buf value;
  Buffer.add_char buf '"'

let rec all_text = function
  | { nkind = P_text _; _ } :: rest -> all_text rest
  | [] -> true
  | _ :: _ -> false

let rec all_unprefixed = function
  | a :: rest -> unprefixed (attr_name a) && all_unprefixed rest
  | [] -> true

(* a line of its own for markup at [level], when indenting *)
let pad buf indent level =
  if indent then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    add_spaces buf (2 * level)
  end

(* [emit] writes [n] at nesting [level], indented when [indent]; the
   loops below are closure-free, so a plain element allocates nothing *)
let rec emit buf scope indent level n =
  match n.nkind with
  | P_text t -> Xml_escape.add_text buf t.tcontent
  | P_comment c ->
      pad buf indent level;
      Buffer.add_string buf "<!--";
      Buffer.add_string buf c.ccontent;
      Buffer.add_string buf "-->"
  | P_pi p ->
      pad buf indent level;
      Buffer.add_string buf "<?";
      Buffer.add_string buf p.target;
      if p.pcontent <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf p.pcontent
      end;
      Buffer.add_string buf "?>"
  | P_element e ->
      pad buf indent level;
      emit_element buf scope indent level e.ename e.eattrs e.echildren
  | P_attribute a ->
      (* a standalone attribute, as an element holding its value (a
         text node made for the call, linked nowhere) *)
      pad buf indent level;
      let value = { n with nkind = P_text { tcontent = a.avalue }; nparent = None } in
      emit_element buf scope indent level a.aname [] [ value ]
  | P_document d -> emit_all buf scope indent level d.dchildren

and emit_all buf scope indent level = function
  | c :: rest ->
      emit buf scope indent level c;
      emit_all buf scope indent level rest
  | [] -> ()

and emit_element buf scope indent level name attrs children =
  Buffer.add_char buf '<';
  add_qname buf name;
  let scope =
    if
      unprefixed name && uri_key name = ""
      && (Smap.is_empty scope || Option.value ~default:"" (Smap.find_opt "" scope) = "")
      && all_unprefixed attrs
    then scope
    else begin
      let declarations, scope = needed_declarations scope name attrs in
      List.iter
        (fun (prefix, uri) ->
          Buffer.add_string buf " xmlns";
          if prefix <> "" then begin
            Buffer.add_char buf ':';
            Buffer.add_string buf prefix
          end;
          Buffer.add_string buf "=\"";
          Xml_escape.add_attribute buf uri;
          Buffer.add_char buf '"')
        declarations;
      scope
    end
  in
  emit_attributes buf attrs;
  match children with
  | [] -> Buffer.add_string buf "/>"
  | _ ->
      Buffer.add_char buf '>';
      if Xml_parser.is_raw_text_element name.Qname.local then
        (* script/style bodies round-trip as raw text (cf. the parser) *)
        emit_raw buf scope level children
      else begin
        let indent = indent && not (all_text children) in
        emit_all buf scope indent (level + 1) children;
        if indent then begin
          Buffer.add_char buf '\n';
          add_spaces buf (2 * level)
        end
      end;
      Buffer.add_string buf "</";
      add_qname buf name;
      Buffer.add_char buf '>'

and emit_raw buf scope level = function
  | c :: rest ->
      (match c.nkind with
      | P_text t -> Buffer.add_string buf t.tcontent
      | _ -> emit buf scope false (level + 1) c);
      emit_raw buf scope level rest
  | [] -> ()

(* literal xmlns attributes are skipped: the fixup regenerates them *)
and emit_attributes buf = function
  | { nkind = P_attribute a; _ } :: rest ->
      if not (is_literal_xmlns a.aname) then add_attribute buf a.aname a.avalue;
      emit_attributes buf rest
  | _ :: rest -> emit_attributes buf rest
  | [] -> ()

let serialize ?(indent = false) n =
  let buf = Buffer.create 256 in
  emit buf Smap.empty indent 0 n;
  Buffer.contents buf

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
    if Ablation.current.acceleration then begin
      Obs.Metrics.incr lookup_by_id;
      let r = root n in
      match Hashtbl.find_opt (elems_of r (accel_of r)).by_id idv with
      | None -> None
      | Some b ->
          if n == r then Some b.chunks.(0).(0)
          else List.find_opt (fun c -> in_subtree ~top:n c) (bucket_list b)
    end
    else begin
      Obs.Metrics.incr lookup_by_id_naive;
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
  if Ablation.current.acceleration then begin
    Obs.Metrics.incr lookup_by_name;
    let r = root n in
    let bucket =
      match Hashtbl.find_opt (elems_of r (accel_of r)).by_name (sym :> int) with
      | Some b -> bucket_list b
      | None -> []
    in
    if n == r then bucket else List.filter (fun c -> in_subtree ~top:n c) bucket
  end
  else begin
    Obs.Metrics.incr lookup_by_name_naive;
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

   Per root and per probed name, built by one walk on the first probe of
   that name and kept by every write from then on: for an attribute
   local name, its values mapped to their owning elements; for an
   element local name, the string value of its "flat" elements (no
   element children, so their value is their text) mapped to those
   elements. Buckets are keyed by the value string in the per-root
   table, freed with the document. Probes of "id" values are answered
   from the id buckets, so no tree keeps a second id index.

   Lookups return [None] whenever the index cannot answer exactly
   (switch off, or a text lookup on a local name that somewhere in the
   document has element children); callers must fall back to a scan.
   Buckets are keyed by local name only, so callers refine hits against
   the exact QName/axis they need. *)

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
  if not Ablation.current.value_index then None
  else begin
    let r = root n in
    let s = accel_of r in
    let found =
      match which with
      | `Attr when Sym.equal lsym id_sym -> Some (Hashtbl.find_opt (elems_of r s).by_id v)
      | `Attr -> Some (Hashtbl.find_opt (attr_values_of r s lsym) v)
      | `Text ->
          let ti = text_values_of r s lsym in
          if ti.complex > 0 then None else Some (Hashtbl.find_opt ti.tvals v)
    in
    match found with
    | None -> None
    | Some b ->
        Obs.Metrics.incr value_index_hits;
        let bucket = match b with Some b -> bucket_list b | None -> [] in
        Some
          (if n == r then bucket
           else List.filter (fun c -> in_subtree ~top:n c) bucket)
  end

(* Elements in the subtree of [n] (inclusive) owning an attribute with
   the given local name and exact value, in document order. *)
let elements_by_attr_value_sym n ~local v = value_lookup `Attr n local v
let elements_by_attr_value n ~local v = value_lookup `Attr n (Sym.intern local) v

(* Flat elements in the subtree of [n] (inclusive) with the given local
   name and exact string value, in document order. *)
let elements_by_text_value_sym n ~local v = value_lookup `Text n local v
let elements_by_text_value n ~local v = value_lookup `Text n (Sym.intern local) v
