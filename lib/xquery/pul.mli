(** Pending update lists (XQuery Update Facility).

    Updating expressions accumulate update primitives; nothing touches
    the target tree until {!apply}. The paper relies on this snapshot
    semantics (§3.2: "all modifications are performed once the
    expression is entirely evaluated") and on the Scripting Extension
    applying the list at each statement boundary (§3.3). *)

open Xmlb

type primitive =
  | Insert_into of Dom.node * Dom.node list
  | Insert_first of Dom.node * Dom.node list
  | Insert_last of Dom.node * Dom.node list
  | Insert_before of Dom.node * Dom.node list
  | Insert_after of Dom.node * Dom.node list
  | Insert_attributes of Dom.node * Dom.node list
  | Delete of Dom.node
  | Replace_node of Dom.node * Dom.node list
  | Replace_value of Dom.node * string
  | Rename of Dom.node * Qname.t

type t

val create : unit -> t
val add : t -> primitive -> unit
val is_empty : t -> bool
val length : t -> int
val merge : into:t -> t -> unit

(** Apply all pending updates in XQUF §3.2.2 phase order (see the rank
    comment in the implementation), after checking every primitive
    against the DOM ({!refused}), the XQUF conflict rules (duplicate
    rename: XUDY0015; duplicate replace: XUDY0017, duplicate
    replace-value: XUDY0017) and that no element is left with two
    attributes of one name (XUDY0021). Always clears the list: a list
    that fails a check raises with nothing applied and is discarded.
    @raise Xq_error.Error on refusals and conflicts. *)
val apply : t -> unit

(** [refused prim r] raises the error of the DOM's refusal [r] of the
    primitive [prim]: XUDY0009 for a parentless replace target, XUDY0029
    for a parentless insert-before or -after target, XUTY0006 for one
    that is an attribute, XUTY0005 for an insert-into target that takes
    no children, XUTY0022 for attributes inserted into a document,
    XUTY0012 for a kind that cannot be renamed, XUTY0011 and XUTY0010
    for an attribute replaced by a non-attribute and the reverse, and
    XPTY0004 otherwise and for a write outside a list ([prim = None]:
    set style of a node that is not an element). *)
val refused : primitive option -> Dom.refusal -> 'a

(** Drop all pending updates without applying them. *)
val clear : t -> unit
