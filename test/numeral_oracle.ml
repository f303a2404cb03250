(* The numeral reader as it was before the one-pass scanner: it trims,
   checks the XML Schema 1.0 lexical form with [is_numeral], then
   converts with OCaml's [float_of_string_opt] or [int_of_string_opt].
   Kept as test code only, as the oracle the library's scanner must
   match: the strings each form accepts, the double's bits and the
   integer's value or range error. *)

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

(* an xs:double, or [None] outside the form *)
let double str =
  match String.trim str with
  | "INF" -> Some Float.infinity
  | "-INF" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | s -> if is_numeral ~fraction:true ~exponent:true s then float_of_string_opt s else None

(* an xs:decimal, or [None] outside the form *)
let decimal str =
  let s = String.trim str in
  if is_numeral ~fraction:true ~exponent:false s then float_of_string_opt s else None

(* an xs:integer: its value, or a valid form outside the int range, or
   a string outside the form *)
let integer str =
  let s = String.trim str in
  if not (is_numeral ~fraction:false ~exponent:false s) then `Invalid
  else match int_of_string_opt s with Some i -> `Int i | None -> `Out_of_range
