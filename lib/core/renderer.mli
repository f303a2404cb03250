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
    ({!Dom.memo_table}), which every DOM write keeps by dropping the
    memos on its ancestor chain: a re-render after a write re-renders
    only the blocks on the written paths and copies the rest. The
    output is a rope whose pieces carry their byte length, so the page
    text is allocated once, at its size, and each piece is copied into
    it once. Counters: [render.memo.hit]/[render.memo.miss] for
    whole-page reuse, [render.block.hit]/[render.block.miss] for block
    reuse, and [render.elements] for the elements a render visited.

    Used by the CLI ([xqib page --render]), by the browser after every
    event, and by the F1 bench to give the render stage a real cost. *)

type options = {
  width : int;  (** wrap width (default 72) *)
  show_hidden : bool;  (** render elements with [style display: none] *)
}

val default_options : options

(** Render a document (or element subtree) to text. *)
val render : ?options:options -> Dom.node -> string

(** Like {!render}, with the page text and each block's output kept
    in the memo tables of the node's tree, one pair per option set. A
    render of a node nothing under which was written since the last one
    is a lookup; otherwise only the blocks whose memos a write dropped
    are re-rendered. The result always equals {!render}'s. *)
val render_cached : ?options:options -> Dom.node -> string
