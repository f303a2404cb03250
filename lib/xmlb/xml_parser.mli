(** A namespace-aware XML / XHTML parser.

    Produces a lightweight immutable tree; {!Dom} (in the [dom] library)
    converts it into a mutable DOM. The parser accepts the XML subset
    needed for XHTML pages and data documents: prolog, doctype (skipped),
    elements, attributes, namespace declarations, text, CDATA, comments,
    processing instructions, predefined and numeric entities. *)

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
  keep_whitespace : bool;
      (** Keep whitespace-only text nodes (default true). *)
}

val default_options : options

exception Parse_error of { line : int; col : int; message : string }

(** Parse a complete document; returns the children of the document node
    (the root element plus any top-level comments/PIs). *)
val parse : ?options:options -> string -> tree list

(** Parse and return the single root element.
    @raise Parse_error if there is no unique root element. *)
val parse_root : ?options:options -> string -> tree
