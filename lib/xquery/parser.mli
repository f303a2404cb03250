(** Recursive-descent parser for XQuery 1.0 + Update Facility +
    Scripting + Full-Text subset + browser extensions.

    Parsing resolves all QNames against the namespaces, the default
    function namespace and the boundary-space policy the supplied
    static context holds when parsing starts, extended by the prolog's
    own declarations and by constructor [xmlns] attributes as they are
    read. The parser only reads the context: it records nothing in it
    and loads no imported module — {!Engine.install} adds a parsed
    prolog to a context. *)

val parse_program : Static_context.t -> string -> Ast.prog

(** Parse a single expression (no prolog). *)
val parse_expression : Static_context.t -> string -> Ast.expr
