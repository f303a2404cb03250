(** XDM atomic values and the XPath 2.0 atomic type system: construction,
    casting, promotion, canonical lexical forms, value comparison and
    arithmetic. *)

open Xmlb

type atomic_type =
  | T_any_atomic
  | T_untyped
  | T_string
  | T_boolean
  | T_integer
  | T_decimal
  | T_double
  | T_any_uri
  | T_qname
  | T_date
  | T_time
  | T_date_time
  | T_duration
  | T_year_month_duration
  | T_day_time_duration

type t =
  | Untyped of string
  | String of string
  | Boolean of bool
  | Integer of int
  | Decimal of float
  | Double of float
  | Any_uri of string
  | Qname_v of Qname.t
  | Date of Xdm_datetime.t
  | Time of Xdm_datetime.t
  | Date_time of Xdm_datetime.t
  | Duration of Xdm_duration.t
      (** plain xs:duration; subtypes tracked via {!type_of} refinement *)
  | Year_month_duration of Xdm_duration.t
  | Day_time_duration of Xdm_duration.t

(** XPTY/FORG-class dynamic errors. *)
exception Type_error of string

(** FORG0001-class cast failures. *)
exception Cast_error of string

(** A result outside the int range, as (error code, message): FOAR0002
    for integer overflow in arithmetic, FOCA0003 for a cast of a double
    or decimal to xs:integer. *)
exception Range_error of string * string

val type_of : t -> atomic_type

(** [xs:integer] etc. — the local name within the [xs] namespace. *)
val type_name : atomic_type -> string

(** Resolve an [xs:*] local name to a type. [None] if unknown. *)
val type_of_name : string -> atomic_type option

(** [derives_from a b]: is [a] the same as or derived from [b]
    (untyped derives from anyAtomic; integer from decimal; the duration
    subtypes from duration)? *)
val derives_from : atomic_type -> atomic_type -> bool

(** Canonical lexical representation ([fn:string] of the value). *)
val to_string : t -> string

(** Cast to a target type per the XPath 2.0 casting table.
    @raise Cast_error when the cast is not allowed or the literal is
    malformed. *)
val cast : target:atomic_type -> t -> t

(** Can [cast] succeed? (implements [castable as]) *)
val castable : target:atomic_type -> t -> bool

(** Numeric promotion for arithmetic/comparison: untyped casts to
    double; integer < decimal < double.
    @raise Type_error if either side is not numeric/untyped. *)
val promote_pair : t -> t -> t * t

val is_numeric : t -> bool
val is_nan : t -> bool

(** Value comparison per [eq/lt/...]: same-kind comparison after
    untyped→string treatment.
    @raise Type_error on incomparable operand types. *)
val compare_value : t -> t -> int

(** [equal_value a b] — [eq] semantics; NaN is not equal to NaN. *)
val equal_value : t -> t -> bool

(** Arithmetic: +, -, *, div, idiv, mod with numeric promotion, plus
    date/time ± duration and duration arithmetic. Integer results are
    exact or raise.
    @raise Type_error on invalid operand types, Division_by_zero for
    integer/decimal division by zero, Range_error (FOAR0002) when an
    integer result leaves the int range. *)

val add : t -> t -> t
val subtract : t -> t -> t
val multiply : t -> t -> t
val divide : t -> t -> t
val integer_divide : t -> t -> t
val modulo : t -> t -> t
val negate : t -> t

(** Checked int arithmetic ({!Range_error} FOAR0002 on overflow), and
    the allocation-free tests behind it: does the wrapped result [r] of
    [i op j] differ from the exact one? *)

val int_mul : int -> int -> int
val int_neg : int -> int
val add_overflows : int -> int -> int -> bool
val sub_overflows : int -> int -> int -> bool
val mul_overflows : int -> int -> int -> bool

(** Deep equality used by fn:distinct-values / order keys: NaN equals
    NaN, values of comparable types compare by value, otherwise false. *)
val same_key : t -> t -> bool

val pp : Format.formatter -> t -> unit
