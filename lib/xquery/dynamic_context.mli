(** The XQuery dynamic context: variable bindings, focus, the pending
    update list, and the host environment (browser, server, or the
    standalone default).

    The host hooks are how the paper's browser extensions reach the
    simulated browser: [on event ... attach listener] lands in
    {!host.attach}, the async [behind] binding in {!host.attach_behind}
    (§4.4), [trigger event] in {!host.trigger}, and [set/get style] in
    the style hooks (§4.5). *)

open Xmlb

(** A listener ready to be invoked by the host: the declared function's
    name plus a closure that calls it (and applies its updates). When
    the host passes the registration's {!Reactive.memo} with a
    host-computed key that determines the arguments, the closure may
    skip the run entirely if the memoized footprint proves nothing it
    reads has changed. Arguments are passed as a thunk so a skipped run
    never constructs them. *)
type listener = {
  listener_name : Qname.t;
  invoke :
    ?memo:Reactive.memo * string -> (unit -> Xdm_item.sequence list) -> unit;
}

type host = {
  attach :
    event_type:string -> targets:Xdm_item.sequence -> listener:listener -> unit;
  attach_behind :
    event_type:string ->
    computation:(unit -> Xdm_item.sequence) ->
    listener:listener ->
    unit;
  detach :
    event_type:string -> targets:Xdm_item.sequence -> name:Qname.t -> unit;
  trigger : event_type:string -> targets:Xdm_item.sequence -> unit;
  set_style : Dom.node -> string -> string -> unit;
  get_style : Dom.node -> string -> string option;
  doc : string -> Dom.node;
  doc_available : string -> bool;
  put : Dom.node -> string -> unit;
  now : unit -> Xdm_datetime.t;
  alert : string -> unit;  (** used by fn:trace and as a default sink *)
  listener_error : string -> unit;
      (** sink for errors raised inside event listeners: like a real
          browser, a failing handler must not abort event dispatch *)
}

(** Standalone host: events dispatch synchronously through {!Dom_event},
    styles edit the [style] attribute (of an element: another node is
    XPTY0004, {!Pul.refused}), documents are unavailable,
    [behind] evaluates synchronously then signals readyState 4. *)
val default_host : host

type focus = { item : Xdm_item.item; position : int; size : int }

module Smap : Map.S with type key = string

type t = {
  static : Static_context.t;
  globals : (string, Xdm_item.sequence ref) Hashtbl.t;
  locals : Xdm_item.sequence ref Smap.t;
  focus : focus option;
  pul : Pul.t;
  host : host;
  depth : int;
  compiled_fns :
    (int * int * int, t -> Xdm_item.sequence list -> Xdm_item.sequence) Hashtbl.t;
      (** compiled user-function bodies, keyed by {!fn_key} (uri sym,
          local sym, arity); installed by {!Engine.context_for} when
          compiled evaluation is on, consulted by
          [Eval.call_user_function] before the tree-walking body
          dispatch *)
  mutable call : Call_ctx.t option;
      (** what a builtin or external call sees of this context, its
          focus and host services: built by the first call
          ([Eval.call_ctx]) and dropped by {!with_focus}, the one copy
          that changes either *)
}

(** Key of a user function in [compiled_fns]: (uri symbol, local-name
    symbol, arity) from the Qname's pre-interned symbols — int hashing
    per call instead of a Clark-string allocation. *)
val fn_key : Qname.t -> arity:int -> int * int * int

val create : ?host:host -> Static_context.t -> t

(** Bind a fresh local variable (shadows). *)
val bind : t -> Qname.t -> Xdm_item.sequence -> t

(** Look up a variable (locals, then globals).
    @raise Xq_error.Error (XPST0008) if unbound. *)
val lookup : t -> Qname.t -> Xdm_item.sequence

(** The ref cell of a variable, for assignment.
    @raise Xq_error.Error if unbound. *)
val lookup_ref : t -> Qname.t -> Xdm_item.sequence ref

val bind_global : t -> Qname.t -> Xdm_item.sequence -> unit
val with_focus : t -> Xdm_item.item -> position:int -> size:int -> t
val focus_item : t -> Xdm_item.item

(** Fresh local scope (for function bodies: only globals visible). *)
val function_scope : t -> t
