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

(** {1 Refusals}

    The DOM alone decides which writes a tree accepts. Each mutator
    checks its write before it touches anything, and a write it refuses
    raises {!Refused} with the reason, having changed nothing. The
    checks are exposed too, so a caller can check a batch of writes
    before it makes the first. *)

type refusal =
  | Child_kind of kind  (** an attribute or a document given as a child *)
  | Childless of kind
      (** children given to an attribute, text, comment or processing
          instruction *)
  | Cycle  (** a node inserted into itself or one of its descendants *)
  | Parentless
      (** a node to insert next to, or to replace, that has no parent
          (and no parent was named) *)
  | Not_a_child
      (** a reference node (to insert next to, replace or remove) that
          is not a child of its parent: an attribute, or not a child of
          the parent named *)
  | Owner_kind of kind
      (** an attribute set on, removed from or appended to a node other
          than an element *)
  | Rename_kind of kind  (** a document, text or comment renamed *)
  | Replacement_kind of { target : kind; by : kind }
      (** an attribute replaced by a non-attribute, or a child by an
          attribute *)

exception Refused of refusal

(** One line saying why, e.g. ["a text node cannot have children"]. *)
val refusal_message : refusal -> string

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
    @raise Invalid_argument when the structural preconditions fail. *)
val fill : node -> attrs:node list -> node list -> unit

(** {1 Inspection} *)

val kind : node -> kind

(** Unique node identity (creation order). *)
val id : node -> int

val name : node -> Qname.t option

(** [has_name n qn] is [name n = Some qn] (by {!Qname.equal}), with no
    option built: the node tests' comparison. *)
val has_name : node -> Qname.t -> bool

val parent : node -> node option

(** Children, excluding attributes. Documents and elements only;
    other kinds return []. *)
val children : node -> node list

val attributes : node -> node list
val attribute : node -> Qname.t -> string option

(** [iter_elements f n] calls [f el name] on every element of [n]'s
    subtree, [n] included, in document order. The walk allocates
    nothing of its own. *)
val iter_elements : (node -> Qname.t -> unit) -> node -> unit

(** [iter_attributes f el] calls [f name value] on each attribute of
    [el], in order; nothing for other kinds. Allocates nothing of its
    own. *)
val iter_attributes : (Qname.t -> string -> unit) -> node -> unit

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
    (the default) this is an O(1) compare of the two nodes'
    document-order labels, which live on the nodes and which every
    write keeps; the path-based comparison remains the fallback. *)
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

    Each tree lazily carries caches: sparse document-order labels, one
    int on each node (given as {!of_string} builds the tree, else built
    on the first order read), and, on its
    per-root record, id and local-name element buckets (built on the
    tree's first probe, an id, name or value lookup, together with the
    labels in one walk when no order read built them first). Once
    built, a cache is never rebuilt: every
    mutation updates it in place from what it linked, unlinked or
    renamed, so a write and the next read cost what the write touched,
    not the size of the tree. Inserted nodes take labels in the gap
    between their neighbours; a narrow gap relabels a local range
    (order maintenance, Dietz & Sleator 1987; Bender et al. 2002). A
    bucket is kept in chunks of at most 64 nodes, so adding or removing
    an entry copies one chunk, however many nodes share its key. A tree
    whose caches were never built does no upkeep. The counters
    [dom.accel.keys.rebuild] (labels, also when built with the buckets)
    and [dom.accel.index.rebuild] count whole-tree builds;
    [dom.delta.nodes] and [dom.delta.relabels] count the nodes write
    upkeep walked and relabelled, [dom.delta.copies] the bucket entries
    it copied. [Ablation.current]'s [acceleration] field, off, selects
    the naive implementations instead (same observable behaviour — used
    for ablation benchmarks and as the property-test oracle). *)

(** {1 Value indexes}

    Per-root buckets for each probed local name, built by one walk on
    the first probe of that name ([dom.value_index.rebuild]) and kept
    by every mutation from then on: for an attribute name, its values
    mapped to their owning elements; for an element name, the string
    value of its "flat" elements (no element children) mapped to those
    elements. Values of [id] attributes are answered from the id
    buckets of {!get_element_by_id}, so they build no value buckets.
    Keyed by the name and the value strings in the per-root table, so
    they are freed with the document.
    [Ablation.current]'s [value_index] field switches them, apart from
    [acceleration], so join/lookup ablations keep document-order
    labels. *)

(** Elements in the subtree of the given node (inclusive) owning an
    attribute with the given local name (any namespace) and exact
    value, in document order. [None] when the index cannot answer
    (switch off) — fall back to a scan. *)
val elements_by_attr_value : node -> local:string -> string -> node list option

(** Flat elements in the subtree of the given node (inclusive) with
    the given local name (any namespace) and exact string value, in
    document order. [None] when the index cannot answer (switch off,
    or some element with this local name has element children). *)
val elements_by_text_value : node -> local:string -> string -> node list option

(** {1 Subtree memos}

    Tables the layers above keep on the per-root record, freed with
    the document: one per client key, mapping a node's id to a value
    derived from its subtree (the renderer keeps each block element's
    output there). A mutation does not drop the entries on its
    ancestor-or-self chain; it marks them with what it changed, so a
    client can patch its value instead of rebuilding it:
    - the mutation point's entry gets [changed] (its children,
      attributes, name or value changed);
    - each ancestor's entry gets the child the write came through in
      [through], once however many writes came that way; an
      attribute's owner gets [changed] instead;
    - a child that a mutation unlinks counts as a child written
      through: its old parent's entry records it in [through], since
      its subtree can change while it is away and come back unmarked.
    An entry written through more than sixteen children is dropped
    instead. The entries of every node a mutation unlinks are dropped,
    so an entry found with no marks is current. A client that has
    brought its value up to date clears the marks. *)

type memo = ..

type memo_entry = {
  mutable value : memo;
  mutable through : node list;  (** children that writes came through *)
  mutable changed : bool;  (** the node itself was written *)
}

(** The memo table named [key] of the tree containing the node,
    created empty on first use. A tree keeps the tables of its last
    eight keys: a new key drops the oldest table beyond them. *)
val memo_table : node -> string -> (int, memo_entry) Hashtbl.t

val is_ancestor : ancestor:node -> node -> bool
val equal : node -> node -> bool

(** {1 Mutation}

    All mutation functions notify the observers registered on the
    mutated tree's root, and keep its caches and memos. *)

(** Where {!insert_nodes} puts its nodes: after the last or before the
    first child of a parent, or just before or after a sibling. *)
type anchor = Last_of of node | First_of of node | Before of node | After of node

(** [insert_nodes ?parent anchor group] detaches each node of [group]
    from its parent, if it has one, and makes the group consecutive
    children, in its order, at [anchor]: one write, so one pass over the
    child list, one placement of the group's order labels, one footprint
    write record and one [Children_changed]. A sibling anchor that is
    in the group stands for its place: the group goes before the first
    sibling after it outside the group, or last (the DOM's pre-insert
    rule), so [insert_nodes (Before x) [x]] leaves the tree as it was.
    An empty group writes nothing, but is checked. The nodes must be
    distinct. [parent], when given, is the parent a sibling anchor must
    have (DOM [insertBefore]); it is ignored for [Last_of] and
    [First_of].
    @raise Refused with, in this order: [Parentless] for a sibling
    anchor without a parent (none named); [Childless] for a parent of
    a kind that takes no children; [Cycle] for a node of the group that
    is the parent or one of its ancestors; [Not_a_child] for a sibling
    anchor that is an attribute or not a child of [parent];
    [Child_kind] for an attribute or document in the group. *)
val insert_nodes : ?parent:node -> anchor -> node list -> unit

(** The check {!insert_nodes} runs, without the write. *)
val check_insert : ?parent:node -> anchor -> node list -> unit

(** [replace_children parent group] makes [group] the whole child list
    of [parent] in one write: the old children are unlinked in one
    pass, the nodes of [group] leave their parents as in
    {!insert_nodes}, and observers see one [Children_changed]. An empty
    group removes every child.
    @raise Refused as [insert_nodes (Last_of parent) group] does. *)
val replace_children : node -> node list -> unit

(** One-node forms of {!insert_nodes}. *)
val append_child : parent:node -> node -> unit
val insert_first : parent:node -> node -> unit
val insert_before : sibling:node -> node -> unit
val insert_after : sibling:node -> node -> unit

(** Detach from parent; no-op for parentless nodes. [parent], when
    given, is the parent the node must have (DOM [removeChild]).
    @raise Refused [Not_a_child] for a node that is an attribute or not
    a child of [parent]. *)
val remove : ?parent:node -> node -> unit

(** Replace a node with a list of nodes (empty list = delete): an
    attribute by attributes, a child by children. [parent], when given,
    is the parent the node must have (DOM [replaceChild]).
    @raise Refused with, in this order: [Parentless] for a node without
    a parent (none named); [Replacement_kind] for a non-attribute that
    replaces an attribute; for a child, [Childless] and [Cycle] as
    {!insert_nodes} does, [Not_a_child] for a node that is not a child
    of [parent], then [Replacement_kind] for an attribute and
    [Child_kind] for a document that replaces it. *)
val replace : ?parent:node -> node -> node list -> unit

(** The check {!replace} runs, without the write. *)
val check_replace : ?parent:node -> node -> node list -> unit

(** Set the value of an attribute/text/comment/PI node; for an element
    or document, replaces all children with a single text node
    (XQUF [replace value of node] semantics). *)
val set_value : node -> string -> unit

(** Rename an element or attribute, or set a processing
    instruction's target to the name's local part.
    @raise Refused [Rename_kind] for any other kind of node. *)
val rename : node -> Qname.t -> unit

(** The check {!rename} runs, without the write. *)
val check_rename : node -> unit

(** Sets (or replaces) an attribute on an element.
    @raise Refused [Owner_kind] for a node other than an element. *)
val set_attribute : node -> Qname.t -> string -> unit

(** @raise Refused [Owner_kind] for a node other than an element. *)
val remove_attribute : node -> Qname.t -> unit

(** Attach attribute nodes, after its others, to an element in one
    write: one footprint write record and one [Attribute_changed],
    which names the first of them. An empty list writes nothing. The
    nodes must be attributes (else [Invalid_argument]), and their names
    must not repeat the element's or each other's.
    @raise Refused [Owner_kind] for a parent other than an element. *)
val append_attributes : parent:node -> node list -> unit

(** The check {!set_attribute}, {!remove_attribute} and
    {!append_attributes} run on the element, without the write. *)
val check_owner : node -> unit

(** The one-attribute form of {!append_attributes}. *)
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
    Nestable; exception-safe (queued notifications still flush). An
    observer that raises does not stop the others; its exception is
    raised once all are delivered. *)
val with_batch : (unit -> 'a) -> 'a

(** {1 Conversion} *)

(** Build a document node from parsed XML, in one pass and in
    pre-order like {!clone}. The reference {!of_string} is tested
    against. *)
val of_tree : Xml_parser.tree list -> node

(** Parse a document straight into DOM nodes: the parser drives a
    builder that creates each node once, in pre-order (ids and labels
    both), and links it to its parent once. The tree starts with its
    document-order labels, so its first probe builds only its buckets.
    @raise Xml_parser.Parse_error as {!Xml_parser.parse} does. *)
val of_string : ?options:Xml_parser.options -> string -> node

(** XML text of the node, written from the nodes directly; a document
    writes its children one after the other, and a standalone attribute
    is written as an element of its name holding its value. Namespace
    declarations are regenerated so that a reparse gives every name its
    URI; script and style bodies are written raw, as the parser reads
    them. With [indent], nested markup goes on lines of its own,
    indented by two spaces a level. *)
val serialize : ?indent:bool -> node -> string

val pp : Format.formatter -> node -> unit

(** Find the first descendant element (including self if element) with
    the given [id] attribute value (HTML [getElementById]). Index-backed
    when acceleration is on; an early-exit scan otherwise. *)
val get_element_by_id : node -> string -> node option

(** All descendant elements (including self if element) with the given
    local name, any namespace, in document order. Index-backed when
    acceleration is on. *)
val get_elements_by_local_name : node -> string -> node list
