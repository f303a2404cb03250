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
  mutable labels : (int, int) Hashtbl.t option;
      (* nid -> sparse document-order label; built on the first order
         read, or with the first index *)
  mutable elems : elems option;  (* built on the first id or name probe *)
  attr_values : (int, (string, bucket) Hashtbl.t) Hashtbl.t;
      (* per probed attribute local-name symbol: value -> owning
         elements *)
  text_values : (int, text_index) Hashtbl.t;
      (* per probed element local-name symbol *)
  mutable memos : (string * (int, memo) Hashtbl.t) list;
      (* the layers' memo tables, by client key: nid -> memo *)
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
(* Acceleration: per-root caches that every write keeps.

   Every root lazily carries an [accel] record, its per-root record. It
   owns the root's mutation observers and footprint watch, so both are
   freed with the tree, and four caches:
   - sparse document-order labels, making [compare_order] an O(1)
     integer compare (built on the first order read);
   - id and local-name element buckets (built on the first probe);
   - per probed attribute or element name, value buckets (built on the
     first probe of that name);
   - the memo tables of the layers above.
   A cache is built by one walk of the tree; from then on every write
   updates it in place from what the write touched (see "Write upkeep"),
   so the cost of a write and of the next read follows the write, not
   the size of the tree. Buckets are sorted by label, so building an
   index builds the labels too. The [acceleration] switch keeps the
   naive implementations selectable as the ablation baseline and test
   oracle. *)

let acceleration = ref true
let set_acceleration b = acceleration := b
let acceleration_enabled () = !acceleration

(* Value indexes (attribute values and flat-element text) have their
   own switch, so join/lookup ablations can disable them without losing
   document-order labels. *)
let value_index = ref true
let set_value_index b = value_index := b
let value_index_enabled () = !value_index

(* Interned-name fast paths (the [--no-interning] ablation): forwards
   to the global [Sym] switch, which gates [Qname.equal]/[compare] and
   the evaluator's symbol probes. Name buckets stay symbol-keyed either
   way — interning is a bijection, so both modes probe the same keys;
   the switch selects whether probe keys come from pre-interned symbols
   or are re-derived from strings. *)
let set_interned_fastpaths b = Sym.set_fastpaths b
let interned_fastpaths_enabled () = Sym.fastpaths_enabled ()

(* The "id" attribute's symbol, compared against attribute local names
   whenever an attribute enters or leaves a tree. *)
let id_sym : Sym.t = Sym.intern "id"

let metric name = if !Obs.Metrics.enabled then Obs.Metrics.incr name
let metric_by name k = if !Obs.Metrics.enabled then Obs.Metrics.incr ~by:k name

let accel_of r =
  match r.nside with
  | Rooted s -> s
  | Bare | Slotted _ ->
      let s =
        {
          rslot = slot r;
          observers = [];
          watch = Footprint.watch ();
          labels = None;
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
  s.labels <- None;
  s.elems <- None;
  Hashtbl.reset s.attr_values;
  Hashtbl.reset s.text_values;
  s.memos <- []

let link n p =
  n.nparent <- Some p;
  match n.nside with Rooted s -> reset_caches s | Bare | Slotted _ -> ()

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

let fill_labels lt r =
  let count = ref 0 in
  iter_preorder (fun _ -> incr count) r;
  let stride = label_space / (!count + 1) and next = ref 0 in
  iter_preorder
    (fun n ->
      next := !next + stride;
      Hashtbl.replace lt n.nid !next)
    r

let labels_of r s =
  match s.labels with
  | Some lt ->
      metric "dom.accel.keys.hit";
      lt
  | None ->
      metric "dom.accel.keys.rebuild";
      let lt = Hashtbl.create 64 in
      fill_labels lt r;
      s.labels <- Some lt;
      lt

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
let place r lt ~first ~last fresh k =
  let label_of x = Hashtbl.find lt x.nid in
  let bwd = ref [ B_before first ] and fwd = ref [ F_after last ] in
  let pred = next_bwd bwd and succ = next_fwd fwd in
  let lo = match pred with Some p -> label_of p | None -> 0 in
  let hi = match succ with Some x -> label_of x | None -> label_space in
  let spread base width nodes m =
    let step = width / (m + 1) in
    List.iteri (fun j x -> Hashtbl.replace lt x.nid (base + ((j + 1) * step))) nodes
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
        Hashtbl.reset lt;
        fill_labels lt r;
        metric_by "dom.delta.relabels" (Hashtbl.length lt)
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
          metric_by "dom.delta.relabels" (!nleft + !nright)
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

let label lt x = Hashtbl.find lt x.nid

(* the chunk that holds, or would take, label [k]: the last one whose
   first label is at most [k], or the first *)
let chunk_index lt b k =
  let lo = ref 0 and hi = ref (Array.length b.chunks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) lsr 1 in
    if label lt b.chunks.(mid).(0) <= k then lo := mid else hi := mid - 1
  done;
  !lo

(* the first position in chunk [c] labelled [k] or later *)
let lower_bound lt c k =
  let lo = ref 0 and hi = ref (Array.length c) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if label lt c.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* [b]'s chunks with chunk [i] replaced by [cs] *)
let splice b i cs =
  let n = Array.length b.chunks in
  b.chunks <- Array.concat [ Array.sub b.chunks 0 i; cs; Array.sub b.chunks (i + 1) (n - i - 1) ]

(* A bucket in a table is never empty: [entry] drops it with its last
   node. *)

let bucket_add lt b n =
  b.listed <- None;
  let k = label lt n in
  let ci = chunk_index lt b k in
  let c = b.chunks.(ci) in
  let len = Array.length c and i = lower_bound lt c k in
  metric_by "dom.delta.copies" len;
  let c' = Array.make (len + 1) n in
  Array.blit c 0 c' 0 i;
  Array.blit c i c' (i + 1) (len - i);
  if len < chunk_max then b.chunks.(ci) <- c'
  else
    let h = (len + 1) / 2 in
    splice b ci [| Array.sub c' 0 h; Array.sub c' h (len + 1 - h) |]

let bucket_remove lt b n =
  let k = label lt n in
  let ci = chunk_index lt b k in
  let c = b.chunks.(ci) in
  let len = Array.length c in
  let i = ref (lower_bound lt c k) in
  while !i < len && c.(!i) != n do incr i done;
  if !i < len then begin
    b.listed <- None;
    metric_by "dom.delta.copies" (len - 1);
    if len = 1 then splice b ci [||]
    else
      let i = !i in
      b.chunks.(ci) <- Array.init (len - 1) (fun j -> if j < i then c.(j) else c.(j + 1))
  end

(* add [n] to, or remove it from, the bucket of [key] *)
let entry lt ~add tbl key n =
  match (Hashtbl.find_opt tbl key, add) with
  | Some b, _ ->
      (if add then bucket_add else bucket_remove) lt b n;
      if Array.length b.chunks = 0 then Hashtbl.remove tbl key
  | None, true -> Hashtbl.replace tbl key { chunks = [| [| n |] |]; listed = None }
  | None, false -> ()

(* A whole-tree build walks in document order, collecting each key's
   nodes; [seal] then cuts them into buckets. *)
let collect tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := n :: !l
  | None -> Hashtbl.replace tbl key (ref [ n ])

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
let text_entry lt ~add ti n =
  match flat_key n with
  | Some k -> entry lt ~add ti.tvals k n
  | None -> ti.complex <- (if add then ti.complex + 1 else ti.complex - 1)

(* [f] on every element of [n]'s subtree (inclusive), with its name,
   in document order *)
let rec iter_elements f n =
  (match n.nkind with P_element el -> f n el.ename | _ -> ());
  List.iter (iter_elements f) (children n)

(* [f] on the value of every attribute of [el] named [lsym] *)
let iter_attr_values f el (lsym : Sym.t) =
  List.iter
    (fun a ->
      match a.nkind with
      | P_attribute at when Sym.equal at.aname.Qname.lsym lsym -> f at.avalue
      | _ -> ())
    (attributes el)

(* Whole-tree builds *)

let build_elems r =
  metric "dom.accel.index.rebuild";
  let by_id = Hashtbl.create 64 and by_name = Hashtbl.create 64 in
  iter_elements
    (fun n name ->
      collect by_name (name.Qname.lsym :> int) n;
      iter_attr_values (fun v -> collect by_id v n) n id_sym)
    r;
  { by_id = seal by_id; by_name = seal by_name }

let build_attr_values r (lsym : Sym.t) =
  metric "dom.value_index.rebuild";
  let t = Hashtbl.create 64 in
  iter_elements (fun n _ -> iter_attr_values (fun v -> collect t v n) n lsym) r;
  seal t

let build_text_values r (lsym : Sym.t) =
  metric "dom.value_index.rebuild";
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
      metric "dom.accel.index.hit";
      e
  | None ->
      ignore (labels_of r s);
      let e = build_elems r in
      s.elems <- Some e;
      e

let attr_values_of r s (lsym : Sym.t) =
  match Hashtbl.find_opt s.attr_values (lsym :> int) with
  | Some t -> t
  | None ->
      ignore (labels_of r s);
      let t = build_attr_values r lsym in
      Hashtbl.replace s.attr_values (lsym :> int) t;
      t

let text_values_of r s (lsym : Sym.t) =
  match Hashtbl.find_opt s.text_values (lsym :> int) with
  | Some ti -> ti
  | None ->
      ignore (labels_of r s);
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
      let lt = labels_of ra (accel_of ra) in
      match (Hashtbl.find_opt lt a.nid, Hashtbl.find_opt lt b.nid) with
      | Some ka, Some kb ->
          metric "dom.order.keyed";
          Int.compare ka kb
      | _ ->
          metric "dom.order.path";
          compare_paths a b
    end
    else begin
      metric "dom.order.path";
      compare_paths a b
    end

let order_key n =
  if not !acceleration then None
  else
    let r = root n in
    match Hashtbl.find_opt (labels_of r (accel_of r)) n.nid with
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
(* Subtree memos: tables the layers above keep on the per-root record,
   one per client key, mapping a node to a value derived from its
   subtree. Every write drops the entries of the nodes on its ancestor
   chain and of the nodes it unlinks, so an entry found is current. *)

let memo_table n key =
  let s = accel_of (root n) in
  match List.assoc_opt key s.memos with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 64 in
      s.memos <- (key, t) :: s.memos;
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
(* Write upkeep.

   A mutation is one write: [begin_write] at its mutation point (the
   node whose children, attributes, value or name change), then each
   structural step followed by the upkeep of what it linked or
   unlinked, then [end_write]. The upkeep of a linked or unlinked
   subtree is one walk that updates every cache the root keeps — labels,
   id and name buckets, the value buckets of the names probed so far,
   memos — and feeds the footprint write record the local names, ids
   and attribute keys it touched. The record's chain is the mutation
   point's ancestor-or-self chain, whose memos [begin_write] drops. A
   tree with no caches and no registered footprint does no upkeep. *)

type write = {
  wroot : node;
  ws : accel option;  (* the written root's record, if it has one *)
  wfp : Footprint.wrec option;  (* the footprint write record, if captured *)
}

let begin_write ?(capture = true) point =
  let r = root point in
  match r.nside with
  | Bare | Slotted _ -> { wroot = r; ws = None; wfp = None }
  | Rooted s ->
      if s.memos <> [] then begin
        let rec drop n =
          List.iter (fun (_, t) -> Hashtbl.remove t n.nid) s.memos;
          Option.iter drop n.nparent
        in
        drop point
      end;
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
          metric "dom.notify.batched";
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

(* The index entries of attribute [aname = v] on element [owner]. *)
let attr_entries s lt ~add owner (aname : Qname.t) v =
  let lsym = aname.Qname.lsym in
  (if Sym.equal lsym id_sym then
     match s.elems with Some e -> entry lt ~add e.by_id v owner | None -> ());
  match Hashtbl.find_opt s.attr_values (lsym :> int) with
  | Some t -> entry lt ~add t v owner
  | None -> ()

(* An element's own entries: under its name, and its text. *)
let element_entries s lt ~add e (ename : Qname.t) =
  let key = (ename.Qname.lsym :> int) in
  (match s.elems with Some x -> entry lt ~add x.by_name key e | None -> ());
  match Hashtbl.find_opt s.text_values key with
  | Some ti -> text_entry lt ~add ti e
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
            Option.iter (fun lt -> element_entries s lt ~add:true x el.ename) s.labels
        | P_attribute a -> (
            fp_attr w a.aname a.avalue;
            match (s.labels, x.nparent) with
            | Some lt, Some owner -> attr_entries s lt ~add:true owner a.aname a.avalue
            | _ -> ())
        | _ -> ()
      in
      match (s.labels, group) with
      | Some lt, first :: rest ->
          let fresh = List.concat_map preorder group in
          let k = List.length fresh in
          let last = List.fold_left (fun _ x -> x) first rest in
          place w.wroot lt ~first ~last fresh k;
          metric_by "dom.delta.nodes" k;
          List.iter note fresh
      | None, _ when w.wfp <> None -> List.iter (iter_preorder note) group
      | _ -> ())

(* [n]'s subtree was just unlinked from [from]. *)
let unlinked w ~from n =
  match w.ws with
  | None -> ()
  | Some s ->
      let lt = s.labels in
      if lt <> None || s.memos <> [] || w.wfp <> None then begin
        let count = ref 0 in
        (* a node's label goes after its entries and its attributes'
           entries, whose buckets are searched by label *)
        let unlabel x =
          incr count;
          Option.iter (fun lt -> Hashtbl.remove lt x.nid) lt;
          List.iter (fun (_, t) -> Hashtbl.remove t x.nid) s.memos
        in
        let forget_attr owner a =
          match a.nkind with
          | P_attribute at ->
              fp_attr w at.aname at.avalue;
              Option.iter
                (fun lt -> attr_entries s lt ~add:false owner at.aname at.avalue)
                lt;
              unlabel a
          | _ -> ()
        in
        let rec forget x =
          (match x.nkind with
          | P_element el ->
              fp_name w el.ename;
              Option.iter (fun lt -> element_entries s lt ~add:false x el.ename) lt;
              List.iter (forget_attr x) el.eattrs
          | _ -> ());
          unlabel x;
          List.iter forget (children x)
        in
        (match n.nkind with P_attribute _ -> forget_attr from n | _ -> forget n);
        metric_by "dom.delta.nodes" !count
      end

(* Change [e]'s children or their text with [f], moving its text
   entry. *)
let retext w e f =
  let entries ~add =
    match (w.ws, e.nkind) with
    | Some ({ labels = Some lt; _ } as s), P_element el -> (
        match Hashtbl.find_opt s.text_values (el.ename.Qname.lsym :> int) with
        | Some ti -> text_entry lt ~add ti e
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
        | Some ({ labels = Some lt; _ } as s), Some owner ->
            attr_entries s lt ~add owner at.aname at.avalue
        | _ -> ())
    | _ -> ()
  in
  entries ~add:false;
  f ();
  entries ~add:true

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
      | _ -> retext w p (fun () -> set_children p (List.filter (fun c -> c != n) (children p))));
      n.nparent <- None;
      unlinked w ~from:p n

let remove n =
  match n.nparent with
  | None -> ()
  | Some p ->
      let w = begin_write p in
      detach ~w n;
      end_write w
        (match n.nkind with
        | P_attribute a -> Attribute_changed (p, a.aname)
        | _ -> Children_changed p)

(* Make [n] a child of [parent], at the place [weave] gives it in the
   child list. *)
let insert_child parent n weave =
  assert_insertable n;
  detach n;
  let w = begin_write parent in
  retext w parent (fun () ->
      set_children parent (weave (children parent));
      link n parent);
  linked w [ n ];
  end_write w (Children_changed parent)

let append_child ~parent n = insert_child parent n (fun cs -> cs @ [ n ])
let insert_first ~parent n = insert_child parent n (fun cs -> n :: cs)

let insert_relative ~before ~sibling n =
  assert_insertable n;
  match sibling.nparent with
  | None -> err "cannot insert relative to a parentless node"
  | Some p ->
      let rec weave = function
        | [] -> [ n ] (* sibling vanished concurrently; append *)
        | c :: rest when c == sibling ->
            if before then n :: c :: rest else c :: n :: rest
        | c :: rest -> c :: weave rest
      in
      insert_child p n weave

let insert_before ~sibling n = insert_relative ~before:true ~sibling n
let insert_after ~sibling n = insert_relative ~before:false ~sibling n

let replace n replacements =
  match n.nparent with
  | None -> err "cannot replace a parentless node"
  | Some p -> (
      match n.nkind with
      | P_attribute a ->
          let w = begin_write p in
          detach ~w n;
          List.iter
            (fun r ->
              match r.nkind with
              | P_attribute _ ->
                  detach r;
                  (match p.nkind with
                  | P_element e -> e.eattrs <- e.eattrs @ [ r ]
                  | _ -> err "attribute replacement target is not an element");
                  link r p;
                  linked w [ r ]
              | _ -> err "an attribute can only be replaced by attributes")
            replacements;
          end_write w (Attribute_changed (p, a.aname))
      | _ ->
          List.iter assert_insertable replacements;
          let rec weave = function
            | [] -> err "node not found in parent during replace"
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
          end_write w (Children_changed p))

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
      (* replaceElementContent: drop the old children in one pass
         ([detach] would re-filter the child list once per child), then
         link the new text; the element's own text entry changes *)
      (match n.nkind with P_element e -> fp_name w e.ename | _ -> ());
      let old = children n and t = create_text v in
      retext w n (fun () ->
          set_children n [ t ];
          link t n);
      List.iter
        (fun c ->
          c.nparent <- None;
          unlinked w ~from:n c)
        old;
      linked w [ t ]);
  end_write w (Value_changed n)

let rename n qn =
  match n.nkind with
  | P_element e ->
      let w = begin_write n in
      let entries ~add =
        fp_name w e.ename;
        match w.ws with
        | Some ({ labels = Some lt; _ } as s) -> element_entries s lt ~add n e.ename
        | _ -> ()
      in
      entries ~add:false;
      e.ename <- qn;
      entries ~add:true;
      end_write w (Renamed n)
  | P_attribute a ->
      let w = begin_write n in
      rekey_attr w n (fun () -> a.aname <- qn);
      end_write w (Renamed n)
  | P_document _ | P_text _ | P_comment _ | P_pi _ ->
      err "only elements and attributes can be renamed"

let set_attribute el qn v =
  match el.nkind with
  | P_element e -> (
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
      end_write w (Attribute_changed (el, qn)))
  | _ -> err "set_attribute: not an element"

let remove_attribute el qn =
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
  | _ -> err "remove_attribute: not an element"

let append_attribute ~parent a =
  match (parent.nkind, a.nkind) with
  | P_element e, P_attribute { aname; _ } ->
      detach a;
      let w = begin_write parent in
      e.eattrs <- e.eattrs @ [ a ];
      link a parent;
      linked w [ a ];
      end_write w (Attribute_changed (parent, aname))
  | _ -> err "append_attribute: expects an element and an attribute"

(* ------------------------------------------------------------------ *)
(* One-pass construction of fresh trees.

   A node created inside the building call has no per-root record, so
   no caches, no observers and no registered footprints, and a write
   would have nothing to do for it: the builders map each child list
   once and set parent pointers directly instead of appending child by
   child. Every node is allocated before its attributes and its
   content, so ids follow pre-order: cross-tree [compare_order] orders
   roots by id. *)

(* [f] over [xs] in order, each result made a child of [parent] *)
let adopt_map parent f xs =
  List.map
    (fun x ->
      let c = f x in
      link c parent;
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
      metric "dom.lookup.by-id";
      let r = root n in
      match Hashtbl.find_opt (elems_of r (accel_of r)).by_id idv with
      | None -> None
      | Some b ->
          if n == r then Some b.chunks.(0).(0)
          else List.find_opt (fun c -> in_subtree ~top:n c) (bucket_list b)
    end
    else begin
      metric "dom.lookup.by-id.naive";
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
    metric "dom.lookup.by-name";
    let r = root n in
    let bucket =
      match Hashtbl.find_opt (elems_of r (accel_of r)).by_name (sym :> int) with
      | Some b -> bucket_list b
      | None -> []
    in
    if n == r then bucket else List.filter (fun c -> in_subtree ~top:n c) bucket
  end
  else begin
    metric "dom.lookup.by-name.naive";
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
   table, freed with the document.

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
  if not !value_index then None
  else begin
    let r = root n in
    let s = accel_of r in
    let found =
      match which with
      | `Attr -> Some (Hashtbl.find_opt (attr_values_of r s lsym) v)
      | `Text ->
          let ti = text_values_of r s lsym in
          if ti.complex > 0 then None else Some (Hashtbl.find_opt ti.tvals v)
    in
    match found with
    | None -> None
    | Some b ->
        metric "dom.value_index.hits";
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
