(** XDM items and sequences.

    An item is a node (backed by the mutable {!Dom} tree — the
    "XDM store wrapping the DOM" of the paper's architecture, §5.2)
    or an atomic value. A sequence is a flat, ordered list of items. *)

type item = Node of Dom.node | Atomic of Xdm_atomic.t
type sequence = item list

(** {1 Constructors} *)

val of_bool : bool -> sequence
val of_int : int -> sequence
val of_float : float -> sequence
val of_string : string -> sequence
val of_untyped : string -> sequence
val of_nodes : Dom.node list -> sequence

val empty : sequence

(** {1 Accessors} *)

val is_node : item -> bool

(** String value of an item ([fn:string] on one item). *)
val item_string : item -> string

(** Typed value of an item: nodes atomize to untypedAtomic (attributes
    and text carry untyped values in our schema-less store). *)
val item_atomic : item -> Xdm_atomic.t

(** Atomize a sequence ([fn:data]). *)
val atomize : sequence -> Xdm_atomic.t list

(** Effective boolean value.
    @raise Xq_error.Error FORG0006 on sequences that have no EBV, e.g.
    multiple atomics. *)
val effective_boolean : sequence -> bool

(** String value of a whole sequence, space-joined (used by attribute
    and text constructors). *)
val sequence_string : sequence -> string

(** Exactly-one-item helpers.
    @raise Xq_error.Error XPTY0004 if cardinality is wrong. *)

val singleton : sequence -> item
val singleton_node : sequence -> Dom.node
val singleton_atomic : sequence -> Xdm_atomic.t
val singleton_string : sequence -> string

(** Zero-or-one helpers. *)
val opt_atomic : sequence -> Xdm_atomic.t option
val opt_string : sequence -> string option

(** Number interpretation of a single item ([fn:number]-ish): untyped
    and strings parse as double ({!Xdm_atomic.double_of_lexical}), NaN
    on failure. *)
val item_number : item -> float

(** {1 Node-sequence operations} *)

(** Sort by document order and remove duplicates (by node identity).
    Already-sorted duplicate-free input (the common case for path
    steps) is detected with a linear pass over the cached order keys
    and returned as-is when DOM acceleration is on.
    @raise Xq_error.Error XPTY0004 if the sequence contains atomics. *)
val document_order : sequence -> sequence

(** Union/intersect/except by node identity, result in document order. *)
val union : sequence -> sequence -> sequence

val intersect : sequence -> sequence -> sequence
val except : sequence -> sequence -> sequence

(** Are all items nodes? *)
val all_nodes : sequence -> bool

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> sequence -> unit

(** Serialize a sequence the way a query result is shown: nodes as XML,
    atomics via their canonical form, space-separated. *)
val to_display_string : sequence -> string
