(** The reference XQuery evaluator — expressions, FLWOR, paths,
    constructors, updates (pending update lists), scripting blocks and
    the browser extension expressions (dispatched to the host hooks) —
    and the building blocks it shares with the closure compiler: axis
    steps, comparisons, constructors, pending-update building, order-by
    sorting, the hash join, function dispatch and listeners. *)

open Xmlb

(** Raised by the scripting [exit with] statement; caught at function
    and program boundaries. *)
exception Exit_with of Xdm_item.sequence

(** Raised by scripting [break]/[continue]; caught by the nearest
    enclosing [while] and converted to an error at function and
    program boundaries. *)
exception Break_loop

exception Continue_loop

(** The eager reference evaluator: every form, evaluated by walking
    the AST. Production runs {!Compile}'s closures; this one runs when
    [Ablation.current]'s [compiled_eval] field is off and is the oracle
    the differential tests compare production against. *)
val eval : Dynamic_context.t -> Ast.expr -> Xdm_item.sequence

(** Call a declared/external/built-in function by name with already
    evaluated arguments. *)
val call_function :
  Dynamic_context.t -> Qname.t -> Xdm_item.sequence list -> Xdm_item.sequence

(** Build a host listener that invokes the named function (padding or
    truncating arguments to its arity) and then applies pending
    updates — the paper's listener execution cycle (Fig. 1). *)
val make_listener : Dynamic_context.t -> Qname.t -> Dynamic_context.listener

(** One run of a listener's body in that cycle, inline [on*] handlers
    included: [body ()], then the pending updates of the context are
    applied ([exit with] ends the body normally). On an
    {!Xq_error.Error} from either, the pending updates are dropped, the
    error goes to the host's [listener_error] and the result is
    [None]. *)
val run_listener : Dynamic_context.t -> (unit -> Xdm_item.sequence) -> Xdm_item.sequence option

(** {2 Shared building blocks}

    {!Compile} emits closures that must behave exactly like the
    reference; it calls these with values, or with thunks where
    evaluation order matters, instead of re-implementing them. *)

type seq = Xdm_item.sequence
type thunk = unit -> seq

(** [call_declared decl ctx body]: a user function's call protocol
    around [body], which gets the function's fresh local scope: the
    recursion limit (XQDY0054), [exit with]/[break]/[continue] stopping
    at the boundary, the result coerced to the declared type. *)
val call_declared :
  Ast.function_decl -> Dynamic_context.t -> (Dynamic_context.t -> seq) -> seq

(** The focus and host services a builtin or external call sees, built
    at the context's first call and kept in its [call] field. *)
val call_ctx : Dynamic_context.t -> Call_ctx.t

(** Nodes selected by one axis step (uses the local-name index for
    descendant name tests when DOM acceleration is on), with its
    counters and footprint recorded; and, for the compiler's lazy
    steps, an axis's unfiltered nodes, the counters and footprint scope
    a scan of it records, and the node test. *)
val step_nodes : Ast.axis -> Ast.node_test -> Dom.node -> Dom.node list
val axis_nodes : Ast.axis -> Dom.node -> Dom.node list

(** Count a step ([eval.steps], [eval.axis.<axis>]), and a call
    ([eval.calls] and its kind's counter, e.g. {!builtin_calls}). *)
val count_step : Ast.axis -> unit
val count_call : Obs.Metrics.counter -> unit
val builtin_calls : Obs.Metrics.counter
val constructor_calls : Obs.Metrics.counter
val desc_index_steps : Obs.Metrics.counter

val record_axis_scope : Ast.axis -> Dom.node -> unit
val node_test_matches : axis:Ast.axis -> Ast.node_test -> Dom.node -> bool

(** Serve a leading [@k eq 'lit']-style predicate from the per-root
    value index: [Some (candidates, remaining_preds)] or [None] to
    fall back to a scan. *)
val value_index_step :
  Ast.axis -> Ast.node_test -> Ast.expr list -> Dom.node -> (Dom.node list * Ast.expr list) option

(** Operators over evaluated operands. *)
val general_compare_pair : Ast.value_comp -> Xdm_atomic.t -> Xdm_atomic.t -> bool
val value_comp : Ast.value_comp -> seq -> seq -> seq
val general_comp : Ast.value_comp -> seq -> seq -> seq
val node_comp : Ast.node_comp -> seq -> seq -> seq
val arith : Ast.arith -> seq -> seq -> seq
val negate : seq -> seq
val treat : Ast.seq_type -> seq -> seq
val castable : Xdm_atomic.atomic_type -> bool -> seq -> seq
val cast : Xdm_atomic.atomic_type -> bool -> seq -> seq
val construct_atomic : Xdm_atomic.atomic_type -> seq -> seq  (** [xs:T(v)] *)

(** A range's bounds from its operands ([None]: empty; FOAR0002 past
    [max_int] items), and its items. *)
val range_bounds : thunk -> thunk -> (int * int) option
val range_items : (int * int) option -> seq

(** [path_map step lhs]: a path's result from [step item position size]
    per lhs node, nodes in document order (XPTY0018 when mixed). *)
val path_map : (Xdm_item.item -> int -> int -> seq) -> seq -> seq

(** [path_step axis test lhs]: [lhs/axis::test] for a step without
    predicates, the same nodes as {!path_map} of the step (which the
    reference evaluator runs), found with no focus: {!step_nodes} per
    lhs node, then document order once. *)
val path_step : Ast.axis -> Ast.node_test -> seq -> seq

(** Does a predicate value keep the item at this position? And a
    predicate chain, where [value ctx p] evaluates [p] under a focus
    whose size is the stage's input length. *)
val pred_keeps : int -> seq -> bool
val filter_items : (Dynamic_context.t -> 'p -> seq) -> Dynamic_context.t -> seq -> 'p list -> seq

(** One content expression of a constructor (an enclosed expression or
    a literal), or the source of an [insert] or [replace]: the value of
    a fresh expression ({!Core_ir.fresh}: its nodes were built by this
    evaluation and nothing else refers to them), of any other, or a
    constructor's literal text, which needs no node of its own. *)
type part = Fresh of seq | Copied of seq | Text of string

(** [construct n ~attrs parts]: the body of every element and document
    constructor. Turns the parts into content in one pass (XQuery 3.1
    §3.9.1.3): the adjacent atomics of one part join with single
    spaces, adjacent text across parts becomes one text node and empty
    text disappears, documents are replaced by copies of their
    children, attributes must come first (XQTY0024); the nodes of a
    fresh part are linked as they are, all others deep-copied. Appends
    the content's attributes to [attrs] (dropped for a document) and
    fills the new node [n] in one pass ({!Dom.fill}). Returns [[n]].
    Adopted nodes keep their ids, so ids inside a constructed tree need
    not follow document order; [n] is allocated before its content, so
    roots, whose ids order distinct trees, still do.
    @raise Xq_error.Error XQDY0025 when two attributes share a name. *)
val construct : Dom.node -> attrs:Dom.node list -> part list -> seq

val qname_of_value : Dynamic_context.t -> Xdm_atomic.t -> Qname.t

(** Updates: each adds its primitive to the pending update list and
    returns the empty sequence. The source of [insert] and [replace] is
    one content part ([fresh]: a {!Fresh} one); [copy_source] is the deep
    copy a transform's [copy $v := e] binds. They check the XQuery
    values (one target node, attributes only where attributes go, a PI
    renamed to an unprefixed name); what the DOM refuses of the target
    is raised when the list applies ({!Pul.refused}). *)
val insert : Pul.t -> Ast.insert_position -> fresh:bool -> source:thunk -> target:thunk -> seq
val delete : Pul.t -> seq -> seq
val replace : Pul.t -> value_of:bool -> fresh:bool -> target:thunk -> source:thunk -> seq
val rename : Dynamic_context.t -> Pul.t -> target:thunk -> name:thunk -> seq
val copy_source : seq -> Dom.node

(** A clause variable's or parameter's value, coerced to its type. *)
val coerce_var : Qname.t -> Ast.seq_type option -> seq -> seq

(** An order-by key (the atomized singleton, [None] when empty), and
    the stable sort of [(keys, tuple)] pairs on their keys. *)
val order_key : seq -> Xdm_atomic.t option
val sort_keyed : Ast.order_spec list -> (Xdm_atomic.t option list * 'a) list -> 'a list

(** The planner's hash join: the (probe item, build item) pairs with
    equal keys, probe-major, build matches in source order. [build]
    evaluates the right source, forced at the first probe item;
    [build_key]/[probe_key] evaluate a side's key for one item. The
    nested-loop plan's error order is kept (see the implementation). *)
val hash_join :
  general:bool -> build:thunk -> build_key:(Xdm_item.item -> seq) ->
  probe_key:(Xdm_item.item -> seq) -> Xdm_item.item Seq.t ->
  (Xdm_item.item * Xdm_item.item) Seq.t

(** The branch of the first typeswitch case whose type matches. *)
val select_case : (Ast.seq_type * 'a) list -> 'a -> seq -> 'a

(** The text [ftcontains] searches, and whether it holds a phrase. *)
val ft_haystack : seq -> string
val ft_words : stemming:bool -> string -> seq -> bool

(** The browser extensions, through the host hooks; each poisons the
    footprint of a recorded run. *)
val attach : Dynamic_context.t -> Ast.event_binding -> Qname.t -> event:thunk -> target:thunk -> seq
val detach : Dynamic_context.t -> Qname.t -> event:thunk -> target:thunk -> seq
val trigger : Dynamic_context.t -> event:thunk -> target:thunk -> seq
val set_style : Dynamic_context.t -> property:thunk -> value:thunk -> target:thunk -> seq
val get_style : Dynamic_context.t -> property:thunk -> target:thunk -> seq
