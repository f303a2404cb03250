(** A namespace-aware XML / XHTML parser.

    One scanner drives a {!builder}: it hands each node to the builder
    as it meets it, in document order, so a caller builds its own
    structure in one pass ({!Dom.of_string} builds DOM nodes this way).
    {!parse} is the scanner with a builder of lightweight immutable
    trees. The parser accepts the XML subset needed for XHTML pages and
    data documents: prolog, doctype (skipped), elements, attributes,
    namespace declarations, text, CDATA, comments, processing
    instructions, predefined and numeric entities. *)

type tree =
  | Element of Qname.t * attribute list * tree list
  | Text of string
  | Comment of string
  | Pi of string * string  (** target, data *)

and attribute = { name : Qname.t; value : string }

type options = {
  uppercase_tags : bool;
      (** Model Internet Explorer's quirk of upper-casing all HTML tag
          names (paper §5.1): element local names are upper-cased. *)
}

val default_options : options

exception Parse_error of { line : int; col : int; message : string }

(** What the scanner calls, in document order: [open_] at a start tag,
    with the element's name and its attributes after namespace
    resolution (namespace declarations removed), before anything of its
    content; [close] once its content is read, with the children in
    order; [text] (CDATA included), [comment] and [pi] (target, data)
    for the other nodes. Whitespace-only text outside the root element
    is dropped without a call. Every check and every {!Parse_error} is
    the scanner's, so all builders raise the same errors. *)
type ('n, 'e) builder = {
  open_ : Qname.t -> attribute list -> 'e;
  close : 'e -> 'n list -> 'n;
  text : string -> 'n;
  comment : string -> 'n;
  pi : string -> string -> 'n;
}

(** [script] and [style] in any ASCII case: elements whose content the
    parser reads as raw text up to the close tag, and a serializer
    writes unescaped. *)
val is_raw_text_element : string -> bool

(** Scan a complete document with a builder; returns the children of
    the document node (the root element plus any top-level
    comments/PIs). *)
val build : ('n, 'e) builder -> ?options:options -> string -> 'n list

(** {!build} with the tree builder. *)
val parse : ?options:options -> string -> tree list

(** Parse and return the single root element.
    @raise Parse_error if there is no unique root element. *)
val parse_root : ?options:options -> string -> tree
