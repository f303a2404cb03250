type item = Node of Dom.node | Atomic of Xdm_atomic.t
type sequence = item list

let type_error fmt = Xq_error.raise_error Xq_error.type_error_code fmt

let of_bool b = [ Atomic (Xdm_atomic.Boolean b) ]
let of_int i = [ Atomic (Xdm_atomic.Integer i) ]
let of_float f = [ Atomic (Xdm_atomic.Double f) ]
let of_string s = [ Atomic (Xdm_atomic.String s) ]
let of_untyped s = [ Atomic (Xdm_atomic.Untyped s) ]
let of_nodes ns = List.map (fun n -> Node n) ns
let empty = []
let is_node = function Node _ -> true | Atomic _ -> false

let item_string = function
  | Node n -> Dom.string_value n
  | Atomic a -> Xdm_atomic.to_string a

let item_atomic = function
  | Atomic a -> a
  | Node n -> (
      match Dom.kind n with
      | Dom.Comment | Dom.Processing_instruction ->
          Xdm_atomic.String (Dom.string_value n)
      | Dom.Document | Dom.Element | Dom.Attribute | Dom.Text ->
          Xdm_atomic.Untyped (Dom.string_value n))

let atomize seq = List.map item_atomic seq

let effective_boolean = function
  | [] -> false
  | Node _ :: _ -> true
  | [ Atomic a ] -> (
      match a with
      | Xdm_atomic.Boolean b -> b
      | Xdm_atomic.String s | Xdm_atomic.Untyped s | Xdm_atomic.Any_uri s ->
          s <> ""
      | Xdm_atomic.Integer i -> i <> 0
      | Xdm_atomic.Decimal f | Xdm_atomic.Double f ->
          not (f = 0. || Float.is_nan f)
      | _ ->
          Xq_error.raise_error Xq_error.ebv_error "no effective boolean value for xs:%s"
            (Xdm_atomic.type_name (Xdm_atomic.type_of a)))
  | _ :: _ ->
      Xq_error.raise_error Xq_error.ebv_error
        "effective boolean value of a multi-item atomic sequence"

let sequence_string seq = String.concat " " (List.map item_string seq)

let singleton = function
  | [ it ] -> it
  | seq -> type_error "expected exactly one item, got %d" (List.length seq)

let singleton_node seq =
  match singleton seq with
  | Node n -> n
  | Atomic _ -> type_error "expected a node, got an atomic value"

let singleton_atomic seq = item_atomic (singleton seq)
let singleton_string seq = item_string (singleton seq)

let opt_atomic = function
  | [] -> None
  | [ it ] -> Some (item_atomic it)
  | seq -> type_error "expected at most one item, got %d" (List.length seq)

let opt_string seq = Option.map Xdm_atomic.to_string (opt_atomic seq)

let item_number it =
  match item_atomic it with
  | Xdm_atomic.Integer i -> float_of_int i
  | Xdm_atomic.Decimal f | Xdm_atomic.Double f -> f
  | Xdm_atomic.Boolean b -> if b then 1. else 0.
  | a -> Option.value (Xdm_atomic.double_of_lexical (Xdm_atomic.to_string a)) ~default:Float.nan

let all_nodes seq = List.for_all is_node seq

let nodes_only context seq =
  List.map
    (function
      | Node n -> n
      | Atomic _ -> type_error "%s requires a sequence of nodes" context)
    seq

(* Strictly ascending implies sorted and duplicate-free; [seq] holds
   only nodes. *)
let rec strictly_ordered = function
  | Node a :: (Node b :: _ as rest) -> Dom.compare_order a b < 0 && strictly_ordered rest
  | _ -> true

let document_order seq =
  if not (all_nodes seq) then type_error "document ordering requires a sequence of nodes";
  (* Path steps over a sorted context usually produce already-sorted
     results; with cached order keys the linear check is cheap and
     skips the sort entirely. Without acceleration each comparison
     rebuilds root paths, so go straight to the sort. *)
  if Xmlb.Ablation.current.acceleration && strictly_ordered seq then seq
  else
    let nodes = nodes_only "document ordering" seq in
    let rec dedup = function
      | a :: b :: rest when a == b -> dedup (b :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    (* Decorate-sort-undecorate: one key fetch per node, then integer
       compares, beats a hashtable lookup inside every comparison. A
       node without a key (shouldn't happen once caches are warm)
       drops us back to the comparator-based sort. *)
    let keyed =
      if Xmlb.Ablation.current.acceleration then
        let rec decorate acc = function
          | [] -> Some (List.rev acc)
          | n :: rest -> (
              match Dom.order_key n with
              | Some k -> decorate ((k, n) :: acc) rest
              | None -> None)
        in
        decorate [] nodes
      else None
    in
    match keyed with
    | Some pairs ->
        let sorted =
          List.stable_sort
            (fun ((r1, k1), _) ((r2, k2), _) ->
              if r1 <> r2 then Int.compare r1 r2 else Int.compare k1 k2)
            pairs
        in
        of_nodes (dedup (List.map snd sorted))
    | None -> of_nodes (dedup (List.stable_sort Dom.compare_order nodes))

let union a b = document_order (a @ b)

let intersect a b =
  let nb = nodes_only "intersect" b in
  document_order
    (List.filter
       (function
         | Node n -> List.exists (fun m -> m == n) nb
         | Atomic _ -> type_error "intersect requires nodes")
       a)

let except a b =
  let nb = nodes_only "except" b in
  document_order
    (List.filter
       (function
         | Node n -> not (List.exists (fun m -> m == n) nb)
         | Atomic _ -> type_error "except requires nodes")
       a)

let pp_item ppf = function
  | Node n -> Dom.pp ppf n
  | Atomic a -> Xdm_atomic.pp ppf a

let pp ppf seq =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    pp_item ppf seq

let to_display_string seq = Format.asprintf "%a" pp seq
