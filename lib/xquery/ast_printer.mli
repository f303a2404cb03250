(** Serialize the AST back to XQuery source.

    Used by the §6.1 migration tool, which rewrites a server-side page
    program and re-emits it as client-side script text, and by
    round-trip tests ([parse ∘ print ∘ parse] stability). Output is
    normalised (fully parenthesised where precedence is non-trivial);
    it is not a pretty-printer for humans. *)

val expr_to_source : Ast.expr -> string
val prolog_decl_to_source : Ast.prolog_decl -> string
val program_to_source : Ast.prog -> string
