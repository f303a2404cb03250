(** A text renderer for pages — the "render the webpage" stage of the
    paper's pipeline (Fig. 1), in the spirit of a terminal browser:
    block elements break lines, headings are underlined, lists get
    bullets, tables align columns, form controls draw as widgets.

    An element is classified from its local name in place, with an
    ASCII case-insensitive compare, and its [style] attribute is read
    only when it has attributes. Inline words are slices of their text
    nodes until they are wrapped, straight into the output.

    A block element's lines depend only on its subtree and the options,
    because inline text is flushed before and after it. {!render_cached}
    therefore keeps each block's output in the document's memo tables
    ({!Dom.memo_table}). A block's memo is looked up right after the
    element is classified by name, so a memo no write has marked is
    reused without reading an attribute.

    A DOM write does not drop the memos on its ancestor chain: it marks
    each with the child it came through, and the written node's memo
    with the fact that the node itself changed; a child it unlinks
    counts as a child it came through, so a child written while out of
    the tree is rendered again when it comes back. A re-render patches
    a marked memo instead of rebuilding it. The children of a block that
    flows them (a [Block] or [Item]: [div], [ul], [li], …) are kept in
    chunks of about 32, cut where no inline words are pending, as
    [Dom]'s buckets keep nodes in chunks. A patch lines the children up
    with the chunks by node identity, renders again only the chunks a
    write came through or changed (with their neighbours when they grow
    too small, split when too large), and reuses every other chunk
    whole.

    The output is a {!frame}: a rope whose pieces carry their byte
    length. A render does not build the page text; {!text} copies it
    out of the rope on demand, allocated once at its size with each
    piece copied into it once, and at most once per frame. A reused
    piece is copied out as one leaf: a block's piece becomes a leaf of
    its text the first time it is reused, and a run of reused chunks
    becomes slices of one string. An unwritten block therefore costs
    one leaf whatever its size, and a written one what the write
    touched.

    Counters: [render.memo.hit]/[render.memo.miss] for whole-page
    reuse, [render.block.hit]/[render.block.miss] for block memos found
    unmarked or not, [render.elements] for the elements a render
    visited, and [render.copy.leaves] for the leaves {!text} copied
    out (a render that nobody reads copies none).

    Used by the CLI ([xqib page --render]), by the browser after every
    event, and by the F1 bench to give the render stage a real cost. *)

type options = {
  width : int;  (** wrap width (default 72) *)
  show_hidden : bool;  (** render elements with [style display: none] *)
}

val default_options : options

(** A rendering of a page, as it was when rendered: later writes to the
    page do not change it. *)
type frame

(** The text of a frame, copied out of its rope the first time it is
    asked for; later calls return the same string. *)
val text : frame -> string

(** Render a document (or element subtree) to text: {!text} of a frame
    that no memo keeps. *)
val render : ?options:options -> Dom.node -> string

(** Like {!render}, as a frame, with the frame and each block's memo
    kept in the memo tables of the node's tree, one pair per option set,
    named from the options on each call and freed with the document. A
    render of a node nothing under which was written since the last one
    is a lookup that returns the same frame ([==]); otherwise only what
    the writes marked is rendered again. Its {!text} always equals
    {!render}'s. *)
val render_cached : ?options:options -> Dom.node -> frame
