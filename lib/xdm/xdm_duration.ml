type t = { months : int; seconds : float }

let zero = { months = 0; seconds = 0. }
let make ?(months = 0) ?(seconds = 0.) () = { months; seconds }

(* a duration out of the representable range *)
let overflow () = Xq_error.raise_error "FODT0002" "duration out of the representable range"

(* whole seconds are exact in a float below 2^53 *)
let max_seconds = 9007199254740992.

(* The lexical form of XML Schema: [-?P(nY)?(nM)?(nD)?(T(nH)?(nM)?(n(.n)?S)?)?]
   — designators in this order and at most once, digits only (a
   fraction on the seconds alone), [T] followed by a time component,
   and at least one component. *)
let of_string s =
  let fail () = failwith (Printf.sprintf "invalid duration literal %S" s) in
  let n = String.length s in
  let i = ref (if n > 0 && s.[0] = '-' then 1 else 0) in
  let negative = !i = 1 in
  if !i >= n || s.[!i] <> 'P' then fail ();
  incr i;
  let digits () =
    let start = !i in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
    if !i = start then fail ();
    String.sub s start (!i - start)
  in
  (* the components up to [T] or the end, each designator after the
     previous one: (designator, number) *)
  let components designators =
    let rec go allowed acc =
      if !i >= n || s.[!i] = 'T' then List.rev acc
      else begin
        let whole = digits () in
        let fraction = !i < n && s.[!i] = '.' in
        let num = if fraction then (incr i; whole ^ "." ^ digits ()) else whole in
        if !i >= n then fail ();
        let d = s.[!i] in
        incr i;
        if fraction && d <> 'S' then fail ();
        let rec after = function [] -> fail () | x :: rest -> if x = d then rest else after rest in
        go (after allowed) ((d, num) :: acc)
      end
    in
    go designators []
  in
  let date = components [ 'Y'; 'M'; 'D' ] in
  let time =
    if !i >= n then []
    else begin
      incr i (* the T *);
      match components [ 'H'; 'M'; 'S' ] with [] -> fail () | t -> if !i < n then fail () else t
    end
  in
  if date = [] && time = [] then fail ();
  let int_of num = match int_of_string_opt num with Some k -> k | None -> overflow () in
  let add_months acc k = if k > max_int - acc then overflow () else acc + k in
  let months =
    List.fold_left
      (fun acc (d, num) ->
        match d with
        | 'Y' ->
            let y = int_of num in
            if y > max_int / 12 then overflow () else add_months acc (y * 12)
        | 'M' -> add_months acc (int_of num)
        | _ -> acc)
      0 date
  in
  let unit = function 'D' -> 86400. | 'H' -> 3600. | 'M' -> 60. | _ -> 1. in
  let seconds =
    List.fold_left
      (fun acc (d, num) -> acc +. (float_of_string num *. unit d))
      0. (List.filter (fun (d, _) -> d = 'D') date @ time)
  in
  if seconds >= max_seconds then overflow ();
  if negative then { months = - months; seconds = -. seconds }
  else { months; seconds }

let to_string { months; seconds } =
  if months = 0 && seconds = 0. then "PT0S"
  else begin
    let negative = months < 0 || (months = 0 && seconds < 0.) in
    let months = abs months and seconds = Float.abs seconds in
    let buf = Buffer.create 16 in
    if negative then Buffer.add_char buf '-';
    Buffer.add_char buf 'P';
    let years = months / 12 and rem_months = months mod 12 in
    if years > 0 then Buffer.add_string buf (string_of_int years ^ "Y");
    if rem_months > 0 then Buffer.add_string buf (string_of_int rem_months ^ "M");
    let days = int_of_float (seconds /. 86400.) in
    let rem = seconds -. (float_of_int days *. 86400.) in
    if days > 0 then Buffer.add_string buf (string_of_int days ^ "D");
    if rem > 0. then begin
      Buffer.add_char buf 'T';
      let hours = int_of_float (rem /. 3600.) in
      let rem = rem -. (float_of_int hours *. 3600.) in
      let minutes = int_of_float (rem /. 60.) in
      let secs = rem -. (float_of_int minutes *. 60.) in
      if hours > 0 then Buffer.add_string buf (string_of_int hours ^ "H");
      if minutes > 0 then Buffer.add_string buf (string_of_int minutes ^ "M");
      if secs > 0. then
        if Float.is_integer secs then
          Buffer.add_string buf (string_of_int (int_of_float secs) ^ "S")
        else begin
          (* plain decimal notation, as the lexical form requires: the
             fewest decimals that read back as the same float, at most
             12 (float noise below a picosecond is dropped) *)
          let rec digits p =
            let s = Printf.sprintf "%.*f" p secs in
            if p >= 12 || float_of_string s = secs then s else digits (p + 1)
          in
          let s = digits 1 in
          let n = ref (String.length s) in
          while s.[!n - 1] = '0' do decr n done;
          if s.[!n - 1] = '.' then decr n;
          Buffer.add_string buf (String.sub s 0 !n ^ "S")
        end
    end;
    Buffer.contents buf
  end

let equal a b = a.months = b.months && a.seconds = b.seconds

let compare a b =
  match Int.compare a.months b.months with
  | 0 -> Float.compare a.seconds b.seconds
  | c -> c

(* a result outside the representable range is FODT0002: months
   past the int range (allocation-free sign test, as
   {!Xdm_atomic.add_overflows}), seconds past 2^53 or not finite *)
let checked_seconds s = if Float.abs s < max_seconds then s else overflow ()

let add a b =
  let m = a.months + b.months in
  if (a.months lxor m) land (b.months lxor m) < 0 then overflow ();
  { months = m; seconds = checked_seconds (a.seconds +. b.seconds) }

let negate a = { months = -a.months; seconds = -.a.seconds }

let scale a f =
  let m = Float.round (float_of_int a.months *. f) in
  if not (Float.abs m < 4.6e18) then overflow ();
  { months = int_of_float m; seconds = checked_seconds (a.seconds *. f) }

let is_year_month a = a.seconds = 0.
let is_day_time a = a.months = 0
let pp ppf a = Format.pp_print_string ppf (to_string a)
