(** XQuery error reporting: W3C-style error codes plus a message.

    The one exception the data model ({!Xdm_atomic}, {!Xdm_item}) and
    the XQuery engine above it raise for a fault of a query or its
    data, its code chosen where the fault is found. *)

type t = {
  code : string;  (** e.g. ["XPST0003"], ["XUDY0015"], ["SEBR0001"] *)
  message : string;
}

exception Error of t

(** Raise an error with the given code. *)
val raise_error : string -> ('a, unit, string, 'b) format4 -> 'a

(** Well-known codes used across the engine. *)

val syntax : string  (** XPST0003 — grammar error *)

val undefined_variable : string  (** XPST0008 *)

val unknown_function : string  (** XPST0017 *)

val type_error_code : string  (** XPTY0004 *)

val cast_error_code : string  (** FORG0001 *)

val ebv_error : string  (** FORG0006 *)

val div_by_zero : string  (** FOAR0001 *)

val update_conflict_rename : string  (** XUDY0015 *)

val update_conflict_replace : string  (** XUDY0017 *)

val update_target : string  (** XUTY00xx-class target errors *)

val security : string  (** SEBR0001 — browser security (our extension) *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
