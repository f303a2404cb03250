(** The XQuery evaluator: expressions, FLWOR, paths, constructors,
    updates (pending update lists), scripting blocks, and the browser
    extension expressions (dispatched to the host hooks). *)

open Xmlb

(** Raised by the scripting [exit with] statement; caught at function
    and program boundaries. *)
exception Exit_with of Xdm_item.sequence

(** Raised by scripting [break]/[continue]; caught by the nearest
    enclosing [while] and converted to an error at function and
    program boundaries. *)
exception Break_loop

exception Continue_loop

(** Convert stray data-model exceptions ({!Xdm_atomic.Type_error},
    {!Xdm_atomic.Cast_error}, [Division_by_zero]) raised by [f] into
    {!Xq_error.Error}. All public entry points route through this. *)
val protect : (unit -> 'a) -> 'a

val eval : Dynamic_context.t -> Ast.expr -> Xdm_item.sequence

(** Streaming ablation switch (default on; mirrors
    {!Dom.set_acceleration}). When enabled, early-exit consumers —
    EBV contexts, quantifiers, [fn:exists]/[fn:empty]/[fn:head]/
    [fn:subsequence], [fn:count] compared against an integer literal,
    and bounded positional takes — pull items through lazy
    {!Xdm_seq} cursors instead of materialising whole sequences.
    When disabled, every expression evaluates eagerly (the QCheck
    oracle path). *)
val set_streaming : bool -> unit

val streaming_enabled : unit -> bool

(** Evaluate to a lazy pull cursor. Falls back to eager evaluation
    (wrapped in a materialised cursor) when streaming is disabled,
    for updating expressions, and for expression forms that do not
    benefit from laziness. *)
val eval_seq : Dynamic_context.t -> Ast.expr -> Xdm_seq.t

(** Evaluate a block of statements. [script] selects scripting
    semantics (updates applied at every statement boundary, paper
    §3.3); otherwise the block must be a single expression statement. *)
val eval_block :
  Dynamic_context.t -> script:bool -> Ast.statement list -> Xdm_item.sequence

(** Call a declared/external/built-in function by name with already
    evaluated arguments. *)
val call_function :
  Dynamic_context.t -> Qname.t -> Xdm_item.sequence list -> Xdm_item.sequence

(** Build a host listener that invokes the named function (padding or
    truncating arguments to its arity) and then applies pending
    updates — the paper's listener execution cycle (Fig. 1). *)
val make_listener : Dynamic_context.t -> Qname.t -> Dynamic_context.listener

(** {2 Shared building blocks for the closure compiler}

    {!Compile} emits closures that must behave exactly like the
    tree-walker; it reuses the evaluator's axis/index/comparison
    machinery instead of re-implementing it. *)

(** Maximum user-function recursion depth (raises XQDY0054 beyond). *)
val max_depth : int

(** Nodes selected by one axis step (uses the local-name index for
    descendant name tests when DOM acceleration is on). *)
val step_nodes : Ast.axis -> Ast.node_test -> Dom.node -> Dom.node list

val node_test_matches : axis:Ast.axis -> Ast.node_test -> Dom.node -> bool

(** Serve a leading [@k eq 'lit']-style predicate from the per-root
    value index: [Some (candidates, remaining_preds)] or [None] to
    fall back to a scan. *)
val value_index_step :
  Ast.axis ->
  Ast.node_test ->
  Ast.expr list ->
  Dom.node ->
  (Dom.node list * Ast.expr list) option

val value_compare_pair : Ast.value_comp -> Xdm_atomic.t -> Xdm_atomic.t -> bool
val general_compare_pair : Ast.value_comp -> Xdm_atomic.t -> Xdm_atomic.t -> bool

(** [construct n ~attrs content]: the body of every element and
    document constructor in both evaluators. Normalizes [content] per
    the XQuery constructor rules (adjacent atomics join into one text
    node, nodes are deep-copied, documents splice their children,
    attributes come first), appends its attribute nodes to [attrs] (a
    direct constructor's own attributes; dropped for a document) and
    fills the fresh node [n] with them and the children in one pass
    ({!Dom.fill}). Returns [[n]]. [n] must be allocated before its
    attributes and content are evaluated, so that ids stay in
    pre-order.
    @raise Xq_error.Error XQDY0025 when two attributes share a name. *)
val construct :
  Dom.node -> attrs:Dom.node list -> Xdm_item.sequence -> Xdm_item.sequence

val qname_of_value : Dynamic_context.t -> Xdm_atomic.t -> Qname.t
