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

(** All registered (uri, local, min_arity, max_arity). *)
val catalog : unit -> (string * string * int * int) list

(** Register an additional builtin (used by hosts, e.g. the [browser:]
    function library). [max_arity] of [-1] means variadic. *)
val register :
  uri:string -> local:string -> min_arity:int -> max_arity:int -> impl -> unit
