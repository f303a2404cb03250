(** A rule-based expression rewriter, run to a (budgeted) fixpoint.

    The paper motivates XQuery in the browser partly by its
    optimisability ("XQuery is carefully designed to be highly
    optimisable", §1); this module implements a representative set of
    algebraic rewrites so the claim can be measured (bench T5):

    - constant folding of arithmetic, logic, conditionals and
      [fn:concat] over literals;
    - [descendant-or-self::node()/child::x] → [descendant::x], guarded
      by a conservative positional-predicate analysis;
    - trivial-predicate, self-step and singleton-sequence elimination;
    - [fn:count(e) = 0] → [fn:empty(e)], [> 0] → [fn:exists(e)];
    - general comparison of singleton literals → value comparison;
    - inlining of [let $x := <literal>] clauses.

    Each pass is a bottom-up map; because one rewrite can expose
    another (inlining a let uncovers constant arithmetic, folding
    concat uncovers a literal comparison), passes repeat until none
    fires or [max_passes] is exhausted (default 10).

    Rewrites never fire on updating or side-effecting nodes
    themselves; pure subexpressions inside them are still
    simplified. *)

val optimize_expr : ?max_passes:int -> Ast.expr -> Ast.expr
val optimize : ?max_passes:int -> Ast.prog -> Ast.prog

(** The equi-join planner: rewrites two-[for] FLWORs whose first
    where-conjunct compares variable-rooted step paths with [eq]/[=]
    into {!Ast.E_hash_join} while [Ablation.current]'s [join_planning]
    field is on, so the nested-loop plan stays selectable as the
    differential-testing oracle and bench baseline. Changing it
    invalidates nothing by itself — {!Engine} keys its compiled-query
    cache on the whole {!Xmlb.Ablation} record. *)

(** Number of rewrites fired since start (for tests and the ablation
    bench report). *)
val rewrite_count : unit -> int

(** Number of passes the most recent {!optimize}/{!optimize_expr} ran
    (≥ 1; the last pass is the one that fired nothing). *)
val last_passes : unit -> int

(** Exposed for tests: does any predicate in the list potentially
    observe the focus position (numeric value, [fn:position]/[fn:last],
    or a call into user code)? Conservative — unrecognized forms count
    as positional. *)
val has_positional : Ast.expr list -> bool

(** Needs-last / needs-position analyses for the streaming evaluator:
    does the expression observe the focus [size] (resp. [position]) —
    directly via [fn:last]/[fn:position] or through an opaque
    user/external call (function bodies see the caller's focus)?
    Computing a focus size forces materialisation; position streams as
    an incremental counter. Conservative: unknown calls count. *)

val uses_last : Ast.expr -> bool
val uses_position : Ast.expr -> bool

(** [a op b] ⟺ [b (mirror_comp op) a] — the operand-swap mirror of a
    comparison operator (not its negation). *)
val mirror_comp : Ast.value_comp -> Ast.value_comp
