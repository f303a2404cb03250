(** The closure compiler (PAPER: per-event evaluation must be as fast
    as the hardware allows), the one evaluator production runs.
    {!Core_ir.lower} desugars the optimized AST of any form and
    resolves variables to frame slots; the emitter produces one OCaml
    closure per core node, and {!Xdm_seq} cursors for the early-exit
    consumers to pull. The tree-walking {!Eval.eval} is the eager
    reference, selected by [Ablation.current]'s [compiled_eval] field
    (CLI [--no-compiled-eval]). *)

type fn_impl =
  Dynamic_context.t -> Xdm_item.sequence list -> Xdm_item.sequence

type prog_code = {
  body : (Dynamic_context.t -> Xdm_item.sequence) option;
      (** [None] for a library module or a page script without one *)
  fns : ((string option * string * int) * fn_impl) list;
      (** a compiled body for every function the program declared,
          keyed by {!Dynamic_context.fn_key} (uri, local part, arity)
          for {!Dynamic_context.t.compiled_fns} *)
  globals :
    (Xmlb.Qname.t * Ast.seq_type option * (Dynamic_context.t -> Xdm_item.sequence) option) list;
      (** the program's global variables in declaration order, with
          compiled initializers ([None]: external) *)
}

(** Programs and functions compiled, closure nodes emitted: views of
    the registry counters [xquery.compile.programs],
    [xquery.compile.fns] and [xquery.compile.nodes]. [opaque-nodes] is
    always 0: every form compiles. *)
val stats : unit -> (string * int) list

(** The body plus the function and variable declarations [decls] —
    the ones {!Engine.install} added to the static context for this
    program, imported modules' included, and nothing an earlier
    program declared. *)
val compile_prog : Static_context.t -> Ast.prog -> Ast.prolog_decl list -> prog_code

(** One expression outside any program (an inline handler, a generated
    page skeleton), as a closure over a fresh frame. *)
val compile_expr :
  Static_context.t -> Ast.expr -> Dynamic_context.t -> Xdm_item.sequence
