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

(** Every function here raises only {!Xq_error.Error}, with the W3C
    code of the fault: XPTY0004 for a type error, FORG0001 for a cast
    that is not allowed or a malformed literal, FOAR0001 for a division
    by zero, FOAR0002 for an integer result outside the int range,
    FOCA0003 for a cast of a double or decimal outside it, FOCA0005 for
    a duration scaled by NaN and FODT0002 for a duration out of range. *)

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

(** Cast to a target type per the XPath 2.0 casting table. A string
    casts to a numeric type only in XML Schema 1.0's lexical form of
    that type, surrounding whitespace aside.
    @raise Xq_error.Error FORG0001 when the cast is not allowed or the
    literal is malformed. *)
val cast : target:atomic_type -> t -> t

(** The [xs:double] value of a string in the type's lexical form
    (surrounding whitespace aside), read in one pass that checks the
    form and converts: what an untyped value casts to.
    @raise Xq_error.Error FORG0001 when the string is not in the form. *)
val double_of_string : string -> float

(** The same, or [None]: what [fn:number] reads. *)
val double_of_lexical : string -> float option

(** Can [cast] succeed? (implements [castable as]) *)
val castable : target:atomic_type -> t -> bool

(** Numeric promotion for arithmetic/comparison: untyped casts to
    double; integer < decimal < double.
    @raise Xq_error.Error XPTY0004 if either side is not numeric/untyped. *)
val promote_pair : t -> t -> t * t

val is_numeric : t -> bool
val is_nan : t -> bool

(** Value comparison per [eq/lt/...]: same-kind comparison after
    untyped→string treatment.
    @raise Xq_error.Error XPTY0004 on incomparable operand types. *)
val compare_value : t -> t -> int

(** [equal_value a b] — [eq] semantics; NaN is not equal to NaN. *)
val equal_value : t -> t -> bool

(** Arithmetic: +, -, *, div, idiv, mod with numeric promotion, plus
    date/time ± duration and duration arithmetic. Integer results are
    exact or raise.
    @raise Xq_error.Error XPTY0004 on invalid operand types, FOAR0001
    for integer/decimal division by zero, FOAR0002 when an integer
    result leaves the int range. *)

val add : t -> t -> t
val subtract : t -> t -> t
val multiply : t -> t -> t
val divide : t -> t -> t
val integer_divide : t -> t -> t
val modulo : t -> t -> t
val negate : t -> t

(** Checked int arithmetic (FOAR0002 on overflow), and
    the allocation-free tests behind it: does the wrapped result [r] of
    [i op j] differ from the exact one? *)

val int_add : int -> int -> int
val int_mul : int -> int -> int
val int_neg : int -> int
val add_overflows : int -> int -> int -> bool
val sub_overflows : int -> int -> int -> bool
val mul_overflows : int -> int -> int -> bool

(** Deep equality used by fn:distinct-values / order keys: NaN equals
    NaN, values of comparable types compare by value, otherwise false. *)
val same_key : t -> t -> bool

val pp : Format.formatter -> t -> unit
