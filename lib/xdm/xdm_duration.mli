(** XML Schema durations: [xs:duration], [xs:yearMonthDuration],
    [xs:dayTimeDuration].

    A duration is a pair (months, seconds); the two components carry
    their own signs, matching the XDM value space where yearMonth and
    dayTime parts are not inter-convertible. *)

type t = { months : int; seconds : float }

val zero : t
val make : ?months:int -> ?seconds:float -> unit -> t

(** A duration leaves the representable range when its months go
    beyond the int range, or its seconds reach 2{^53} (where a float
    stops holding whole seconds exactly) or are not finite; that is
    {!Xq_error.Error} FODT0002. *)

(** Parse an XML Schema duration literal such as ["P1Y2M3DT4H5M6.7S"]
    or ["-PT90S"]: designators in order and at most once, a fraction on
    the seconds only, [T] followed by a time component.
    @raise Failure on a malformed literal.
    @raise Xq_error.Error FODT0002 on one out of range. *)
val of_string : string -> t

(** Canonical ISO 8601 form. *)
val to_string : t -> string

val equal : t -> t -> bool

(** Ordering is only total within yearMonth-only or dayTime-only
    durations; mixed durations compare by (months, seconds)
    lexicographically, as an implementation-defined total order.  *)
val compare : t -> t -> int

(** [add] and [scale] raise FODT0002 on a result out of range (a NaN
    factor included). *)
val add : t -> t -> t

val negate : t -> t
val scale : t -> float -> t

(** Is this a pure year-month duration (seconds = 0)? *)
val is_year_month : t -> bool

(** Is this a pure day-time duration (months = 0)? *)
val is_day_time : t -> bool

val pp : Format.formatter -> t -> unit
