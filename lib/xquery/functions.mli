(** The XQuery 1.0 / XPath 2.0 built-in function and operator library
    ([fn:] namespace), ~90 functions: accessors, numerics, strings,
    regular expressions, booleans, sequences, aggregates, node
    functions, QNames, date/time component extraction, documents and
    context functions. *)

type impl = Call_ctx.t -> Xdm_item.sequence list -> Xdm_item.sequence

(** Look up a built-in by expanded name and arity. *)
val find : Xmlb.Qname.t -> arity:int -> impl option

(** The window of positions [fn:subsequence] keeps, [(from, upto)]
    with [from] included and [upto] excluded, from its start and
    optional length arguments. *)
val subsequence_window :
  Xdm_item.sequence -> Xdm_item.sequence option -> float * float

(** fn:sum, fn:avg, fn:max and fn:min as one fold over their values,
    taken one at a time (F&O 3.1 §14.4): an untyped value, a node's
    string value included, is an xs:double; numeric values are
    promoted to their common type, except that max and min return an
    integer winner among decimals as an xs:integer; sum and avg also
    add durations of one kind, max and min also order strings (with
    anyURIs), booleans, dates, times and durations of one kind;
    anything else is FORG0006. Max and min are NaN once a NaN is seen
    and return +0 and -0 respectively of two equal zeros, so over
    doubles they do not depend on the values' order. *)
type aggregate = Sum | Avg | Max | Min

type fold

val fold_start : aggregate -> fold

(** Take one item: a node is atomized as it comes. *)
val fold_item : fold -> Xdm_item.item -> unit

val fold_node : fold -> Dom.node -> unit

(** The aggregate of the values taken: 0 for a sum of none. *)
val fold_result : fold -> Xdm_item.sequence

(** All registered (uri, local, min_arity, max_arity). *)
val catalog : unit -> (string * string * int * int) list

(** Register an additional builtin (used by hosts, e.g. the [browser:]
    function library). [max_arity] of [-1] means variadic. *)
val register :
  uri:string -> local:string -> min_arity:int -> max_arity:int -> impl -> unit
