(** A mutable DOM: the tree the browser renders and XQuery queries.

    This mirrors the W3C DOM core subset a browser scripting language
    needs — documents, elements, attributes, text, comments, processing
    instructions — with structural mutation, document order, and
    mutation observers (used by the browser runtime to track dirtying
    and to synchronise the window tree, cf. paper §5.2 where the XDM
    store wraps the DOM). *)

open Xmlb

type node

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Processing_instruction

exception Dom_error of string

(** {1 Construction} *)

val create_document : ?uri:string -> unit -> node
val create_element : ?attrs:(Qname.t * string) list -> Qname.t -> node
val create_attribute : Qname.t -> string -> node
val create_text : string -> node
val create_comment : string -> node
val create_pi : target:string -> string -> node

(** Deep copy; the copy has no parent and fresh node identities,
    allocated in pre-order (each node before its attributes, its
    attributes before its children). Built in one pass without
    notifying anyone: the copy is new, so nothing can observe it. *)
val clone : node -> node

(** [fill n ~attrs children] gives a node just created by the caller
    its children, and attributes beyond those it was created with, in
    one pass, without notifying observers or recording footprint
    writes — the builder behind XQuery element and document
    constructors.

    Preconditions: [n] is a parentless element or document with no
    children yet, which nobody observes (a node created in the same
    call); every attribute and child is parentless; attribute names are
    unique. Names are not checked — the XQuery constructors raise
    XQDY0025 before calling — and a document takes no attributes.
    @raise Dom_error when the structural preconditions fail. *)
val fill : node -> attrs:node list -> node list -> unit

(** {1 Inspection} *)

val kind : node -> kind

(** Unique node identity (creation order). *)
val id : node -> int

val name : node -> Qname.t option
val parent : node -> node option

(** Children, excluding attributes. Documents and elements only;
    other kinds return []. *)
val children : node -> node list

val attributes : node -> node list
val attribute : node -> Qname.t -> string option

(** Like {!attribute} but matches on local name only (namespace
    ignored) — convenient for HTML-ish documents. *)
val attribute_local : node -> string -> string option

(** Node value: attribute/text/comment/PI content; [None] for
    documents and elements. *)
val value : node -> string option

(** The URI a document node was created with ([fn:document-uri]). *)
val document_uri : node -> string option

val pi_target : node -> string option

(** The root of the tree containing the node (a document node if the
    tree is rooted in one, else the topmost element). *)
val root : node -> node

(** {1 Per-node state of the layers above}

    One open slot per node, which [Dom_event] fills with the node's
    listeners so they are freed with the node. {!clone} and the
    builders leave it [Empty]. *)

type slot = ..
type slot += Empty

val slot : node -> slot
val set_slot : node -> slot -> unit

(** The footprint watch of the root of the tree containing the node:
    what a recorded read of the node passes to [Footprint.reading_*].
    Owned by the root's per-root record, like its observers. *)
val root_watch : node -> Footprint.watch

(** XDM string value: concatenation of descendant text for
    documents/elements, content otherwise. *)
val string_value : node -> string

val ancestors : node -> node list

(** Descendants in document order, excluding the node itself and
    attributes. *)
val descendants : node -> node list

val following_siblings : node -> node list
val preceding_siblings : node -> node list

(** [compare_order a b] orders nodes in document order. Nodes from
    different trees are ordered by their root's identity (stable,
    implementation-defined, as XDM permits). When acceleration is on
    (the default) this is an O(1) compare of the tree's document-order
    labels, which every write keeps; the path-based comparison remains
    the fallback. *)
val compare_order : node -> node -> int

(** The path-based comparison, bypassing the order-key cache — the
    ablation baseline and the oracle the accelerated compare is tested
    against. Same contract as {!compare_order}. *)
val compare_order_naive : node -> node -> int

(** The node's position as a [(root id, label)] pair that sorts
    consistently with {!compare_order} — lets bulk sorts fetch each key
    once instead of once per comparison. Labels are sparse and a write
    may relabel a range, so keys are only comparable between two
    writes. [None] when acceleration is off. *)
val order_key : node -> (int * int) option

(** {1 Acceleration}

    Each tree root lazily carries caches on its per-root record: sparse
    document-order labels (built on the first order read) and id and
    local-name element buckets (built, with the labels, on the first
    probe of the tree). Once built, a cache is never rebuilt: every
    mutation updates it in place from what it linked, unlinked or
    renamed, so a write and the next read cost what the write touched,
    not the size of the tree. Inserted nodes take labels in the gap
    between their neighbours; a narrow gap relabels a local range
    (order maintenance, Dietz & Sleator 1987; Bender et al. 2002). A
    bucket is kept in chunks of at most 64 nodes, so adding or removing
    an entry copies one chunk, however many nodes share its key. A tree
    whose caches were never built does no upkeep. The counters [dom.accel.keys.rebuild]
    and [dom.accel.index.rebuild] count whole-tree builds;
    [dom.delta.nodes] and [dom.delta.relabels] count the nodes write
    upkeep walked and relabelled, [dom.delta.copies] the bucket entries
    it copied. The switch selects the naive
    implementations instead (same observable behaviour — used for
    ablation benchmarks and as the property-test oracle). Global; on
    by default. *)

val set_acceleration : bool -> unit
val acceleration_enabled : unit -> bool

(** {1 Value indexes}

    Per-root buckets for each probed local name, built by one walk on
    the first probe of that name ([dom.value_index.rebuild]) and kept
    by every mutation from then on: for an attribute name, its values
    mapped to their owning elements; for an element name, the string
    value of its "flat" elements (no element children) mapped to those
    elements. Keyed by the value string in the per-root table, so
    values are not interned and are freed with the document.
    Independent switch (on by default) so join/lookup ablations keep
    document-order labels. *)

val set_value_index : bool -> unit
val value_index_enabled : unit -> bool

(** {1 Interned-name fast paths}

    The [--no-interning] ablation switch, forwarded to the global
    [Xmlb.Sym] switch: gates [Qname.equal]/[compare] and the
    evaluator's symbol-keyed probes back to string comparison. The
    intern table itself and the symbol keying of the DOM indexes stay
    on either way (interning is a bijection, so both modes agree on
    every key); only the fast paths are ablated. Global; on by
    default. *)

val set_interned_fastpaths : bool -> unit
val interned_fastpaths_enabled : unit -> bool

(** Elements in the subtree of the given node (inclusive) owning an
    attribute with the given local name (any namespace) and exact
    value, in document order. [None] when the index cannot answer
    (switch off) — fall back to a scan. *)
val elements_by_attr_value : node -> local:string -> string -> node list option

(** Like {!elements_by_attr_value}, keyed by the pre-interned
    local-name symbol (no string hashing on the probe). *)
val elements_by_attr_value_sym :
  node -> local:Sym.t -> string -> node list option

(** Flat elements in the subtree of the given node (inclusive) with
    the given local name (any namespace) and exact string value, in
    document order. [None] when the index cannot answer (switch off,
    or some element with this local name has element children). *)
val elements_by_text_value : node -> local:string -> string -> node list option

(** Like {!elements_by_text_value}, keyed by the pre-interned
    local-name symbol. *)
val elements_by_text_value_sym :
  node -> local:Sym.t -> string -> node list option

(** {1 Subtree memos}

    Tables the layers above keep on the per-root record, freed with
    the document: one per client key, mapping a node's id to a value
    derived from its subtree (the renderer keeps each block element's
    output there). Every mutation drops the entries of the nodes on its
    ancestor-or-self chain and of every node it unlinks, so an entry
    found is current. *)

type memo = ..

(** The memo table named [key] of the tree containing the node,
    created empty on first use. *)
val memo_table : node -> string -> (int, memo) Hashtbl.t

val is_ancestor : ancestor:node -> node -> bool
val equal : node -> node -> bool

(** {1 Mutation}

    All mutation functions notify the observers registered on the
    mutated tree's root, and keep its caches and memos. *)

val append_child : parent:node -> node -> unit
val insert_first : parent:node -> node -> unit
val insert_before : sibling:node -> node -> unit
val insert_after : sibling:node -> node -> unit

(** Detach from parent; no-op for parentless nodes. *)
val remove : node -> unit

(** Replace a node with a list of nodes (empty list = delete).
    @raise Dom_error if the node has no parent. *)
val replace : node -> node list -> unit

(** Set the value of an attribute/text/comment/PI node; for an element
    or document, replaces all children with a single text node
    (XQUF [replace value of node] semantics). *)
val set_value : node -> string -> unit

val rename : node -> Qname.t -> unit

(** Sets (or replaces) an attribute on an element. *)
val set_attribute : node -> Qname.t -> string -> unit

val remove_attribute : node -> Qname.t -> unit

(** Attach a parentless attribute node to an element. *)
val append_attribute : parent:node -> node -> unit

(** {1 Mutation observers}

    An observer lives on the per-root record of the node it watches. A
    mutation is delivered to the observers of the root of the mutated
    tree at that moment, in registration order; observers of other
    trees cost nothing, so mutating or building one tree takes the same
    time however many other trees are observed. An observer on a node
    that is not a root fires again once that node is detached and
    becomes one. Observers are freed with the node they watch. *)

type mutation =
  | Children_changed of node  (** the parent whose child list changed *)
  | Attribute_changed of node * Qname.t  (** element, attribute name *)
  | Value_changed of node
  | Renamed of node

type observer_id

(** Observe all mutations in the tree rooted at [root]. *)
val observe : root:node -> (mutation -> unit) -> observer_id

(** Stop one observer; the others on its root stay active. Unobserving
    an id twice is a no-op. *)
val unobserve : observer_id -> unit

(** Run [f] with observer notifications batched: mutations performed
    inside [f] queue their notifications and deliver them, in mutation
    order, when the outermost batch closes — so observers (and the
    footprint dirtiness pass) see one coherent post-apply changeset
    instead of mid-transaction state. Cache upkeep stays immediate.
    Nestable; exception-safe (queued notifications still flush). *)
val with_batch : (unit -> 'a) -> 'a

(** {1 Conversion} *)

(** Build a document node from parsed XML, in one pass and in
    pre-order like {!clone}. *)
val of_tree : Xml_parser.tree list -> node

val of_string : ?options:Xml_parser.options -> string -> node

(** Convert (element/text/comment/PI or document) to the immutable
    tree representation; a document converts to its children.  *)
val to_trees : node -> Xml_parser.tree list

val serialize : ?indent:bool -> node -> string
val pp : Format.formatter -> node -> unit

(** Find the first descendant element (including self if element) with
    the given [id] attribute value (HTML [getElementById]). Index-backed
    when acceleration is on; an early-exit scan otherwise. *)
val get_element_by_id : node -> string -> node option

(** All descendant elements (including self if element) with the given
    local name, any namespace, in document order. Index-backed when
    acceleration is on. The string entry point interns its argument;
    callers holding a [Qname.t] should pass the pre-interned symbol to
    {!get_elements_by_local_sym} so the index probe is pure int
    hashing. *)
val get_elements_by_local_name : node -> string -> node list

val get_elements_by_local_sym : node -> Sym.t -> node list
