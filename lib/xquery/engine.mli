(** The engine facade: compile and run XQuery programs.

    This is the module hosts embed: the browser runtime (the paper's
    plug-in, Fig. 1) compiles each [<script type="text/xquery">] body
    once and then evaluates the main query and, later, each event
    listener against the live DOM. *)

open Xmlb

type compiled = {
  prog : Ast.prog;
  static : Static_context.t;
  decls : Ast.prolog_decl list;
      (** the functions and variables {!install} added to [static] for
          this program, in declaration order, imported modules'
          included *)
  code : Compile.prog_code option;
      (** closure code of the body and of [decls]; [None] when
          compiled evaluation was off at compile time *)
}

(* The evaluator is chosen by [Ablation.current]'s [compiled_eval]
   field. On (the default), {!compile} closure-compiles the program —
   its body and the functions and global-variable initializers it
   declared, updates, scripting and streaming included — and every
   entry point below runs that code. Off, nothing is compiled and the
   eager reference evaluator {!Eval.eval} runs instead: the oracle the
   differential tests compare production against (CLI
   [--no-compiled-eval]). *)

(** A fresh static context with the standard namespaces. *)
val default_static : unit -> Static_context.t

(** Add a parsed program's prolog to [static] — the only function that
    does. First every module the prolog imports, directly or through
    another module, that [static] has not imported yet is resolved and
    parsed; this step raises (XQST0059 for a module it cannot locate)
    and writes nothing. Then it declares the prolog's namespaces,
    defaults, options and import prefixes, marks the imports imported
    and declares the functions and variables of the program and of
    the modules it imports — not those modules' own namespaces,
    defaults or options. Returns the function and variable
    declarations added, in order. *)
val install : Ast.prog -> Static_context.t -> Ast.prolog_decl list

(** Compile a main or library module: parse and optimize it without
    touching [static], {!install} its prolog, then closure-compile the
    body and the declarations {!install} returned. A compile that
    raises leaves [static] as it was. [optimize] (default true) runs
    the rewrite pass. *)
val compile : ?optimize:bool -> ?static:Static_context.t -> string -> compiled

(** The process-wide compiled-query cache, keyed by (optimize flag,
    {!Xmlb.Ablation.key} of the current configuration,
    {!Static_context.fingerprint}, source). An entry
    keeps only what a hit reads — the program and its closure code —
    never a static context, so a cached script holds nothing of the
    page that first compiled it. Hosts that swap module resolvers or
    external-function {e implementations} while keeping the same
    registration keys must {!Query_cache.invalidate} it. *)
val query_cache : (Ast.prog * Compile.prog_code option) Query_cache.t

(** Like {!compile}, but consults {!query_cache} first. A hit
    {!install}s the cached program in [static] without re-parsing and
    returns it with the cached code and the caller's context; equal
    fingerprints mean the install adds what the cached code covers. On
    a miss it compiles, stores the program and code, and behaves
    exactly like {!compile}. Falls back to {!compile} while
    [Ablation.current]'s [query_cache] field is off (CLI
    [--no-query-cache]). *)
val compile_cached :
  ?optimize:bool -> ?static:Static_context.t -> string -> compiled

(** Build a dynamic context for a compiled program: binds the optional
    context item, installs the compiled bodies of the functions the
    program declared (none for the reference evaluator) and evaluates
    its global variables in order. External variables take their value
    from [bindings], checked against the declared type; one without a
    value raises XPDY0002. *)
val context_for :
  ?host:Dynamic_context.host ->
  ?context_item:Xdm_item.item ->
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  compiled ->
  Dynamic_context.t

(** Add one more program to a context that runs several (a page's
    scripts share one): compile [source] with {!compile_cached}
    against the context's static context, then install and initialise
    it as {!context_for} does a fresh context, except that an
    external variable without a value is left unbound (a page has no
    one to supply it). All or nothing: if the compile or a global
    initializer raises, the static context, the compiled functions and
    the globals (their values included) are as they were before, and
    the error propagates. *)
val add_script : Dynamic_context.t -> string -> compiled

(** The evaluator of one expression outside any program, compiled
    against [static] (or the reference when compiled evaluation is
    off). *)
val expression :
  Static_context.t -> Ast.expr -> Dynamic_context.t -> Xdm_item.sequence

(** Evaluate the program body in the given context. Does NOT apply the
    pending update list (callers that want snapshot semantics use
    {!run}). Library modules return the empty sequence. *)
val eval_body : Dynamic_context.t -> compiled -> Xdm_item.sequence

(** Compile-and-run convenience: evaluates the body and applies the
    pending update list (XQUF snapshot semantics). *)
val run :
  ?host:Dynamic_context.host ->
  ?context_item:Xdm_item.item ->
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  compiled ->
  Xdm_item.sequence

(** One-shot: compile then {!run}. *)
val eval_string :
  ?optimize:bool ->
  ?static:Static_context.t ->
  ?host:Dynamic_context.host ->
  ?context_item:Xdm_item.item ->
  ?bindings:(Qname.t * Xdm_item.sequence) list ->
  string ->
  Xdm_item.sequence

(** Call a function declared by the compiled program. *)
val call :
  Dynamic_context.t -> Qname.t -> Xdm_item.sequence list -> Xdm_item.sequence
