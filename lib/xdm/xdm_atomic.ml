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
  | Year_month_duration of Xdm_duration.t
  | Day_time_duration of Xdm_duration.t

(* every fault raises [Xq_error.Error] with its W3C code, here where
   it is found *)
let type_error fmt = Xq_error.raise_error Xq_error.type_error_code fmt
let cast_error fmt = Xq_error.raise_error Xq_error.cast_error_code fmt
let div_by_zero () = Xq_error.raise_error Xq_error.div_by_zero "division by zero"

let type_of = function
  | Untyped _ -> T_untyped
  | String _ -> T_string
  | Boolean _ -> T_boolean
  | Integer _ -> T_integer
  | Decimal _ -> T_decimal
  | Double _ -> T_double
  | Any_uri _ -> T_any_uri
  | Qname_v _ -> T_qname
  | Date _ -> T_date
  | Time _ -> T_time
  | Date_time _ -> T_date_time
  | Duration _ -> T_duration
  | Year_month_duration _ -> T_year_month_duration
  | Day_time_duration _ -> T_day_time_duration

let type_name = function
  | T_any_atomic -> "anyAtomicType"
  | T_untyped -> "untypedAtomic"
  | T_string -> "string"
  | T_boolean -> "boolean"
  | T_integer -> "integer"
  | T_decimal -> "decimal"
  | T_double -> "double"
  | T_any_uri -> "anyURI"
  | T_qname -> "QName"
  | T_date -> "date"
  | T_time -> "time"
  | T_date_time -> "dateTime"
  | T_duration -> "duration"
  | T_year_month_duration -> "yearMonthDuration"
  | T_day_time_duration -> "dayTimeDuration"

let type_of_name = function
  | "anyAtomicType" -> Some T_any_atomic
  | "untypedAtomic" -> Some T_untyped
  | "string" | "normalizedString" | "token" | "NCName" | "ID" | "IDREF" ->
      Some T_string
  | "boolean" -> Some T_boolean
  | "integer" | "int" | "long" | "short" | "byte" | "nonNegativeInteger"
  | "positiveInteger" | "negativeInteger" | "nonPositiveInteger"
  | "unsignedInt" | "unsignedLong" | "unsignedShort" | "unsignedByte" ->
      Some T_integer
  | "decimal" -> Some T_decimal
  | "double" | "float" -> Some T_double
  | "anyURI" -> Some T_any_uri
  | "QName" -> Some T_qname
  | "date" -> Some T_date
  | "time" -> Some T_time
  | "dateTime" -> Some T_date_time
  | "duration" -> Some T_duration
  | "yearMonthDuration" -> Some T_year_month_duration
  | "dayTimeDuration" -> Some T_day_time_duration
  | _ -> None

let derives_from a b =
  a = b || b = T_any_atomic
  || (a = T_integer && b = T_decimal)
  || ((a = T_year_month_duration || a = T_day_time_duration) && b = T_duration)

(* ---------------- lexical forms ---------------- *)

(* The decimal digits of [i], as [string_of_int] writes them, without
   its format interpreter. A negative [i] is worked on as it is: its
   remainders are negative, and [min_int] has no positive twin. *)
let rec int_digits n w = if n > -10 && n < 10 then w else int_digits (n / 10) (w + 1)

let rec write_digits b n pos =
  Bytes.unsafe_set b pos (Char.unsafe_chr (48 + abs (n mod 10)));
  if n / 10 <> 0 then write_digits b (n / 10) (pos - 1)

let int_to_string i =
  let len = if i < 0 then int_digits i 1 + 1 else int_digits i 1 in
  let b = Bytes.create len in
  if i < 0 then Bytes.unsafe_set b 0 '-';
  write_digits b i (len - 1);
  Bytes.unsafe_to_string b

let decimal_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.12f" f in
    let rec strip i = if i > 0 && s.[i] = '0' then strip (i - 1) else i in
    let last = strip (String.length s - 1) in
    let last = if s.[last] = '.' then last - 1 else last in
    String.sub s 0 (last + 1)
  end

let double_to_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* the digits of [Printf.sprintf "%.0f"], without its format
       interpreter; the int cast loses only the sign of -0 *)
    if f = 0. && Float.sign_bit f then "-0" else int_to_string (int_of_float f)
  else
    let s = Printf.sprintf "%.12g" f in
    s

let to_string = function
  | Untyped s | String s | Any_uri s -> s
  | Boolean b -> if b then "true" else "false"
  | Integer i -> int_to_string i
  | Decimal f -> decimal_to_string f
  | Double f -> double_to_string f
  | Qname_v q -> Qname.to_string q
  | Date d -> Xdm_datetime.date_to_string d
  | Time t -> Xdm_datetime.time_to_string t
  | Date_time dt -> Xdm_datetime.date_time_to_string dt
  | Duration d | Year_month_duration d | Day_time_duration d ->
      Xdm_duration.to_string d

(* ---------------- casting ---------------- *)

let trim = String.trim

(* a date, time or duration literal: its parser's [Failure] is the
   cast's FORG0001 (a duration out of range is FODT0002 already) *)
let literal parse str =
  match parse (trim str) with v -> v | exception Failure m -> cast_error "%s" m

let parse_boolean s =
  match trim s with
  | "true" | "1" -> true
  | "false" | "0" -> false
  | s -> cast_error "cannot cast %S to xs:boolean" s

(* The numeric lexical spaces of XML Schema 1.0, checked before OCaml's
   readers convert (they also take [0x10], [1_000], [inf], ...): an
   integer is an optional sign and digits; a decimal an optional sign
   and digits with at most one [.] before, among or after them; a double a
   decimal with an optional exponent ([e] or [E], an optional sign,
   digits), or [INF], [-INF] or [NaN]. [s] is trimmed. *)
let rec digits_end s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then digits_end s (i + 1) else i

let sign_end s i = if i < String.length s && (s.[i] = '+' || s.[i] = '-') then i + 1 else i

let is_numeral ~fraction ~exponent s =
  let n = String.length s in
  let start = sign_end s 0 in
  let int_end = digits_end s start in
  let mantissa_end, mantissa_digits =
    if fraction && int_end < n && s.[int_end] = '.' then
      let e = digits_end s (int_end + 1) in
      (e, e - start - 1)
    else (int_end, int_end - start)
  in
  mantissa_digits > 0
  && (mantissa_end = n
     || exponent
        && (s.[mantissa_end] = 'e' || s.[mantissa_end] = 'E')
        &&
        let e = sign_end s (mantissa_end + 1) in
        let e_end = digits_end s e in
        e_end > e && e_end = n)

let double_of_lexical str =
  match trim str with
  | "INF" -> Some Float.infinity
  | "-INF" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | s -> if is_numeral ~fraction:true ~exponent:true s then float_of_string_opt s else None

let parse_integer s =
  let s = trim s in
  if not (is_numeral ~fraction:false ~exponent:false s) then
    cast_error "cannot cast %S to xs:integer" s;
  (* a valid lexical form, so only the int range can refuse it *)
  match int_of_string_opt s with
  | Some i -> i
  | None -> Xq_error.raise_error "FOCA0003" "%s is outside the xs:integer range" s

let parse_decimal str =
  let s = trim str in
  match if is_numeral ~fraction:true ~exponent:false s then float_of_string_opt s else None with
  | Some f -> f
  | None -> cast_error "cannot cast %S to xs:decimal" str

let parse_double s =
  match double_of_lexical s with
  | Some f -> f
  | None -> cast_error "cannot cast %S to xs:double" (trim s)

(* 2^62, the first float past [max_int]; [min_int] is its negation *)
let int_bound = 4611686018427387904.

let float_to_integer f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    cast_error "cannot cast %s to xs:integer" (double_to_string f)
  else if f >= int_bound || f < -.int_bound then
    Xq_error.raise_error "FOCA0003" "%s is outside the xs:integer range" (double_to_string f)
  else int_of_float f

let numeric_value = function
  | Integer i -> float_of_int i
  | Decimal f | Double f -> f
  | v -> type_error "expected a numeric value, got xs:%s" (type_name (type_of v))

(* the cast of a string to [target] (top level, so a cast allocates
   no closure) *)
let cast_from_string target str =
  match target with
  | T_any_atomic -> Untyped str
  | T_untyped -> Untyped str
  | T_string -> String str
  | T_boolean -> Boolean (parse_boolean str)
  | T_integer -> Integer (parse_integer str)
  | T_decimal -> Decimal (parse_decimal str)
  | T_double -> Double (parse_double str)
  | T_any_uri -> Any_uri (trim str)
  | T_qname -> Qname_v (Qname.of_string (trim str))
  | T_date -> Date (literal Xdm_datetime.date_of_string str)
  | T_time -> Time (literal Xdm_datetime.time_of_string str)
  | T_date_time -> Date_time (literal Xdm_datetime.date_time_of_string str)
  | T_duration -> Duration (literal Xdm_duration.of_string str)
  | T_year_month_duration ->
      Year_month_duration { (literal Xdm_duration.of_string str) with Xdm_duration.seconds = 0. }
  | T_day_time_duration ->
      Day_time_duration { (literal Xdm_duration.of_string str) with Xdm_duration.months = 0 }

let cast ~target v =
  match (v, target) with
  | _, T_any_atomic -> v
  | Untyped str, _ | String str, _ -> cast_from_string target str
  | _, T_string -> String (to_string v)
  | _, T_untyped -> Untyped (to_string v)
  | Boolean b, T_integer -> Integer (if b then 1 else 0)
  | Boolean b, T_decimal -> Decimal (if b then 1. else 0.)
  | Boolean b, T_double -> Double (if b then 1. else 0.)
  | Boolean _, T_boolean -> v
  | Integer _, T_integer -> v
  | Integer i, T_decimal -> Decimal (float_of_int i)
  | Integer i, T_double -> Double (float_of_int i)
  | Integer i, T_boolean -> Boolean (i <> 0)
  | Decimal f, T_integer -> Integer (float_to_integer (Float.trunc f))
  | Decimal _, T_decimal -> v
  | Decimal f, T_double -> Double f
  | Decimal f, T_boolean -> Boolean (f <> 0.)
  | Double f, T_integer -> Integer (float_to_integer (Float.trunc f))
  | Double f, T_decimal ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        cast_error "cannot cast %s to xs:decimal" (double_to_string f)
      else Decimal f
  | Double _, T_double -> v
  | Double f, T_boolean -> Boolean (not (Float.is_nan f || f = 0.))
  | Any_uri _, T_any_uri -> v
  | Qname_v _, T_qname -> v
  | Date _, T_date -> v
  | Date d, T_date_time -> Date_time { d with Xdm_datetime.hour = 0; minute = 0; second = 0. }
  | Time _, T_time -> v
  | Date_time _, T_date_time -> v
  | Date_time dt, T_date ->
      Date { dt with Xdm_datetime.hour = 0; minute = 0; second = 0. }
  | Date_time dt, T_time -> Time { dt with Xdm_datetime.year = 1970; month = 1; day = 1 }
  | (Duration d | Year_month_duration d | Day_time_duration d), T_duration ->
      Duration d
  | (Duration d | Year_month_duration d | Day_time_duration d), T_year_month_duration
    ->
      Year_month_duration { d with Xdm_duration.seconds = 0. }
  | (Duration d | Year_month_duration d | Day_time_duration d), T_day_time_duration
    ->
      Day_time_duration { d with Xdm_duration.months = 0 }
  | _, _ ->
      cast_error "cannot cast xs:%s to xs:%s" (type_name (type_of v)) (type_name target)

let castable ~target v =
  match cast ~target v with _ -> true | exception Xq_error.Error _ -> false

let is_numeric v =
  match v with Integer _ | Decimal _ | Double _ -> true | _ -> false

let is_nan = function Double f | Decimal f -> Float.is_nan f | _ -> false

let promote_pair a b =
  let lift v =
    match v with
    | Untyped s -> Double (parse_double s)
    | Integer _ | Decimal _ | Double _ -> v
    | _ ->
        type_error "expected a numeric operand, got xs:%s" (type_name (type_of v))
  in
  let a = lift a and b = lift b in
  match (a, b) with
  | Integer _, Integer _ | Decimal _, Decimal _ | Double _, Double _ -> (a, b)
  | Integer i, Decimal _ -> (Decimal (float_of_int i), b)
  | Decimal _, Integer j -> (a, Decimal (float_of_int j))
  | (Integer _ | Decimal _), Double _ -> (Double (numeric_value a), b)
  | Double _, (Integer _ | Decimal _) -> (a, Double (numeric_value b))
  | _ -> assert false

(* ---------------- comparison ---------------- *)

let compare_value a b =
  let str_side v =
    match v with Untyped s -> String s | v -> v
  in
  let a = str_side a and b = str_side b in
  match (a, b) with
  | (Integer _ | Decimal _ | Double _), (Integer _ | Decimal _ | Double _) -> (
      match promote_pair a b with
      | Integer i, Integer j -> Int.compare i j
      | Decimal x, Decimal y | Double x, Double y -> Float.compare x y
      | _ -> assert false)
  | (String x | Any_uri x), (String y | Any_uri y) -> String.compare x y
  | Boolean x, Boolean y -> Bool.compare x y
  | Qname_v x, Qname_v y ->
      if Qname.equal x y then 0
      else type_error "QNames support only eq/ne comparison"
  | Date x, Date y | Time x, Time y | Date_time x, Date_time y ->
      Xdm_datetime.compare x y
  | ( (Duration x | Year_month_duration x | Day_time_duration x),
      (Duration y | Year_month_duration y | Day_time_duration y) ) ->
      Xdm_duration.compare x y
  | _ ->
      type_error "cannot compare xs:%s with xs:%s"
        (type_name (type_of a))
        (type_name (type_of b))

let equal_value a b =
  match (a, b) with
  | Qname_v x, Qname_v y -> Qname.equal x y
  | _ ->
      if is_nan a || is_nan b then false
      else compare_value a b = 0

let same_key a b =
  if is_nan a && is_nan b then true
  else match compare_value a b with 0 -> true | _ -> false | exception Xq_error.Error _ -> false

(* ---------------- arithmetic ---------------- *)

(* Overflow tests on the wrapped result [r] of [i op j]: sign tests
   (a division for products of large operands), allocating nothing. *)
let add_overflows i j r = (i lxor r) land (j lxor r) < 0
let sub_overflows i j r = (i lxor j) land (i lxor r) < 0

let mul_overflows i j r =
  let small x = x > -0x80000000 && x < 0x80000000 in
  (not (small i && small j)) && i <> 0 && (r / i <> j || (i = -1 && j = min_int))

let overflow tag = Xq_error.raise_error "FOAR0002" "integer overflow in %s" tag

let int_add i j =
  let r = i + j in
  if add_overflows i j r then overflow "+" else r

let int_sub i j =
  let r = i - j in
  if sub_overflows i j r then overflow "-" else r

let int_mul i j =
  let r = i * j in
  if mul_overflows i j r then overflow "*" else r

let int_neg i = if i = min_int then overflow "unary minus" else -i

let numeric_op int_op float_op tag a b =
  match promote_pair a b with
  | Integer i, Integer j -> Integer (int_op i j)
  | Decimal x, Decimal y -> Decimal (float_op x y)
  | Double x, Double y -> Double (float_op x y)
  | _ -> assert false [@warning "-8"]
  | exception Xq_error.Error { code; _ } when code = Xq_error.type_error_code ->
      type_error "invalid operands for %s: xs:%s, xs:%s" tag
        (type_name (type_of a))
        (type_name (type_of b))

let as_duration = function
  | Duration d | Year_month_duration d | Day_time_duration d -> Some d
  | _ -> None

let duration_tagged template d =
  match template with
  | Year_month_duration _ -> Year_month_duration { d with Xdm_duration.seconds = 0. }
  | Day_time_duration _ -> Day_time_duration { d with Xdm_duration.months = 0 }
  | _ -> Duration d

(* a NaN factor is FOCA0005; a result out of range FODT0002 *)
let scale_duration template d f =
  if Float.is_nan f then Xq_error.raise_error "FOCA0005" "a duration scaled by NaN";
  duration_tagged template (Xdm_duration.scale d f)

let add a b =
  match (a, b, as_duration a, as_duration b) with
  | (Date d | Date_time d), _, _, Some dur ->
      let r = Xdm_datetime.add_duration d dur in
      (match a with Date _ -> Date r | _ -> Date_time r)
  | _, (Date d | Date_time d), Some dur, _ ->
      let r = Xdm_datetime.add_duration d dur in
      (match b with Date _ -> Date r | _ -> Date_time r)
  | Time t, _, _, Some dur ->
      Time
        (Xdm_datetime.of_epoch_seconds ?tz_minutes:t.Xdm_datetime.tz_minutes
           (Xdm_datetime.to_epoch_seconds t +. dur.Xdm_duration.seconds))
  | _, _, Some da, Some db -> duration_tagged a (Xdm_duration.add da db)
  | _ -> numeric_op int_add ( +. ) "+" a b

let subtract a b =
  match (a, b, as_duration a, as_duration b) with
  | (Date d | Date_time d), _, _, Some dur ->
      let r = Xdm_datetime.add_duration d (Xdm_duration.negate dur) in
      (match a with Date _ -> Date r | _ -> Date_time r)
  | Date da, Date db, _, _ | Date_time da, Date_time db, _, _ ->
      Day_time_duration (Xdm_datetime.difference da db)
  | Time ta, Time tb, _, _ ->
      Day_time_duration (Xdm_datetime.difference ta tb)
  | _, _, Some da, Some db ->
      duration_tagged a (Xdm_duration.add da (Xdm_duration.negate db))
  | _ -> numeric_op int_sub ( -. ) "-" a b

let multiply a b =
  match (as_duration a, as_duration b) with
  | Some d, None when is_numeric b -> scale_duration a d (numeric_value b)
  | None, Some d when is_numeric a -> scale_duration b d (numeric_value a)
  | _ -> numeric_op int_mul ( *. ) "*" a b

let divide a b =
  match (as_duration a, as_duration b) with
  | Some d, None when is_numeric b ->
      let f = numeric_value b in
      if f = 0. then div_by_zero ()
      else scale_duration a d (1. /. f)
  | Some da, Some db ->
      if Xdm_duration.is_year_month da && Xdm_duration.is_year_month db then
        if db.Xdm_duration.months = 0 then div_by_zero ()
        else
          Decimal
            (float_of_int da.Xdm_duration.months /. float_of_int db.Xdm_duration.months)
      else if db.Xdm_duration.seconds = 0. then div_by_zero ()
      else Decimal (da.Xdm_duration.seconds /. db.Xdm_duration.seconds)
  | _ -> (
      match promote_pair a b with
      | Integer i, Integer j ->
          if j = 0 then div_by_zero ()
          else Decimal (float_of_int i /. float_of_int j)
      | Decimal x, Decimal y ->
          if y = 0. then div_by_zero () else Decimal (x /. y)
      | Double x, Double y -> Double (x /. y)
      | _ -> assert false)

let integer_divide a b =
  match promote_pair a b with
  | Integer i, Integer j ->
      if j = 0 then div_by_zero ()
      else if i = min_int && j = -1 then overflow "idiv"
      else Integer (i / j)
  | Decimal x, Decimal y | Double x, Double y ->
      if y = 0. then div_by_zero ()
      else if Float.is_nan x || Float.is_nan y || Float.abs x = Float.infinity then
        type_error "idiv with NaN or INF operand"
      else
        let q = Float.trunc (x /. y) in
        if q >= int_bound || q < -.int_bound then overflow "idiv"
        else Integer (int_of_float q)
  | _ -> assert false

let modulo a b =
  match promote_pair a b with
  | Integer i, Integer j ->
      if j = 0 then div_by_zero () else Integer (i mod j)
  | Decimal x, Decimal y ->
      if y = 0. then div_by_zero () else Decimal (Float.rem x y)
  | Double x, Double y -> Double (Float.rem x y)
  | _ -> assert false

let negate = function
  | Integer i -> Integer (int_neg i)
  | Decimal f -> Decimal (-.f)
  | Double f -> Double (-.f)
  | Untyped s -> Double (-.parse_double s)
  | Duration d -> Duration (Xdm_duration.negate d)
  | Year_month_duration d -> Year_month_duration (Xdm_duration.negate d)
  | Day_time_duration d -> Day_time_duration (Xdm_duration.negate d)
  | v -> type_error "cannot negate xs:%s" (type_name (type_of v))

let pp ppf v = Format.pp_print_string ppf (to_string v)
