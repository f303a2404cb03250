type t = {
  year : int;
  month : int;
  day : int;
  hour : int;
  minute : int;
  second : float;
  tz_minutes : int option;
}

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month ~year ~month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year year then 29 else 28
  | _ -> invalid_arg "days_in_month"

let make ?(hour = 0) ?(minute = 0) ?(second = 0.) ?tz_minutes ~year ~month ~day () =
  if month < 1 || month > 12 then failwith "month out of range";
  if day < 1 || day > days_in_month ~year ~month then failwith "day out of range";
  if hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0. || second >= 61.
  then failwith "time component out of range";
  { year; month; day; hour; minute; second; tz_minutes }

(* Civil-days algorithm (Howard Hinnant): days since 1970-01-01. *)
let days_from_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (month + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - (((153 * mp) + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  (year, month, day)

let to_epoch_seconds t =
  let days = days_from_civil ~year:t.year ~month:t.month ~day:t.day in
  let secs =
    (float_of_int days *. 86400.)
    +. (float_of_int t.hour *. 3600.)
    +. (float_of_int t.minute *. 60.)
    +. t.second
  in
  match t.tz_minutes with
  | None -> secs
  | Some tz -> secs -. (float_of_int tz *. 60.)

let of_epoch_seconds ?tz_minutes secs =
  let secs =
    match tz_minutes with
    | None -> secs
    | Some tz -> secs +. (float_of_int tz *. 60.)
  in
  let days = int_of_float (Float.floor (secs /. 86400.)) in
  let rem = secs -. (float_of_int days *. 86400.) in
  let year, month, day = civil_from_days days in
  let hour = int_of_float (rem /. 3600.) in
  let rem = rem -. (float_of_int hour *. 3600.) in
  let minute = int_of_float (rem /. 60.) in
  let second = rem -. (float_of_int minute *. 60.) in
  (* guard against float fuzz creating second = 60.0000001 *)
  let second = if second < 0. then 0. else second in
  { year; month; day; hour; minute; second; tz_minutes }

let compare a b = Float.compare (to_epoch_seconds a) (to_epoch_seconds b)
let equal a b = compare a b = 0

(* ---------------- parsing ---------------- *)

(* Each field of XML Schema's date and time forms is a run of ASCII
   digits, so OCaml's numeral syntax ([0x7D8], [+1], [1_0]) is no
   field: [digits s pos len] is the number the [len] digits at [pos]
   spell, and anything else fails. *)
let digits s pos len =
  if pos + len > String.length s then failwith "short field";
  let v = ref 0 in
  for i = pos to pos + len - 1 do
    match s.[i] with
    | '0' .. '9' as c -> v := (!v * 10) + Char.code c - Char.code '0'
    | _ -> failwith "not a digit"
  done;
  !v

let rec digits_end s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then digits_end s (i + 1) else i

(* Z or (+|-)hh:mm, at most 14:00 either way *)
let parse_tz s pos =
  let n = String.length s in
  if pos >= n then (None, pos)
  else
    match s.[pos] with
    | 'Z' -> (Some 0, pos + 1)
    | ('+' | '-') as sign when pos + 6 <= n && s.[pos + 3] = ':' ->
        let h = digits s (pos + 1) 2 in
        let m = digits s (pos + 4) 2 in
        if m > 59 || (h * 60) + m > 14 * 60 then failwith "timezone out of range";
        let v = (h * 60) + m in
        (Some (if sign = '-' then -v else v), pos + 6)
    | _ -> (None, pos)

let fail_lit what s = failwith (Printf.sprintf "invalid %s literal %S" what s)

(* -?YYYY-MM-DD: a year of four digits or more (then without a leading
   zero, and at most 18, so that it fits an int), returns (year, month,
   day, next_pos) *)
let parse_date_part s =
  let off = if String.length s > 0 && s.[0] = '-' then 1 else 0 in
  let d1 = digits_end s off in
  let len = d1 - off in
  if
    len < 4 || len > 18
    || (len > 4 && s.[off] = '0')
    || d1 + 6 > String.length s
    || s.[d1] <> '-'
    || s.[d1 + 3] <> '-'
  then fail_lit "date" s;
  let year = digits s off len in
  ((if off = 1 then -year else year), digits s (d1 + 1) 2, digits s (d1 + 4) 2, d1 + 6)

(* hh:mm:ss, then a fraction of one digit or more *)
let parse_time_part s pos =
  let n = String.length s in
  if pos + 8 > n || s.[pos + 2] <> ':' || s.[pos + 5] <> ':' then fail_lit "time" s;
  let hour = digits s pos 2 in
  let minute = digits s (pos + 3) 2 in
  ignore (digits s (pos + 6) 2);
  let sec_end = if pos + 8 < n && s.[pos + 8] = '.' then digits_end s (pos + 9) else pos + 8 in
  if sec_end = pos + 9 then fail_lit "time" s;
  let second = float_of_string (String.sub s (pos + 6) (sec_end - pos - 6)) in
  (hour, minute, second, sec_end)

let date_of_string s =
  try
    let year, month, day, pos = parse_date_part s in
    let tz_minutes, pos = parse_tz s pos in
    if pos <> String.length s then fail_lit "date" s;
    make ~year ~month ~day ?tz_minutes ()
  with Failure _ -> fail_lit "date" s

let time_of_string s =
  try
    let hour, minute, second, pos = parse_time_part s 0 in
    let tz_minutes, pos = parse_tz s pos in
    if pos <> String.length s then fail_lit "time" s;
    make ~year:1970 ~month:1 ~day:1 ~hour ~minute ~second ?tz_minutes ()
  with Failure _ -> fail_lit "time" s

let date_time_of_string s =
  try
    let year, month, day, pos = parse_date_part s in
    if pos >= String.length s || s.[pos] <> 'T' then fail_lit "dateTime" s;
    let hour, minute, second, pos = parse_time_part s (pos + 1) in
    let tz_minutes, pos = parse_tz s pos in
    if pos <> String.length s then fail_lit "dateTime" s;
    make ~year ~month ~day ~hour ~minute ~second ?tz_minutes ()
  with Failure _ -> fail_lit "dateTime" s

(* ---------------- printing ---------------- *)

let tz_to_string = function
  | None -> ""
  | Some 0 -> "Z"
  | Some tz ->
      let sign = if tz < 0 then '-' else '+' in
      let tz = abs tz in
      Printf.sprintf "%c%02d:%02d" sign (tz / 60) (tz mod 60)

let seconds_to_string second =
  if Float.is_integer second then Printf.sprintf "%02d" (int_of_float second)
  else begin
    let s = Printf.sprintf "%09.6f" second in
    (* strip trailing zeros of the fraction *)
    let rec strip i = if s.[i] = '0' then strip (i - 1) else i in
    let last = strip (String.length s - 1) in
    let last = if s.[last] = '.' then last - 1 else last in
    String.sub s 0 (last + 1)
  end

(* at least four digits, after the sign of a negative year *)
let year_to_string y = if y < 0 then Printf.sprintf "-%04d" (-y) else Printf.sprintf "%04d" y

let date_to_string t =
  Printf.sprintf "%s-%02d-%02d%s" (year_to_string t.year) t.month t.day
    (tz_to_string t.tz_minutes)

let time_to_string t =
  Printf.sprintf "%02d:%02d:%s%s" t.hour t.minute (seconds_to_string t.second)
    (tz_to_string t.tz_minutes)

let date_time_to_string t =
  Printf.sprintf "%s-%02d-%02dT%02d:%02d:%s%s" (year_to_string t.year) t.month t.day t.hour
    t.minute (seconds_to_string t.second)
    (tz_to_string t.tz_minutes)

let add_duration t (d : Xdm_duration.t) =
  (* year-month part: calendar arithmetic with day clamping *)
  let total_months = ((t.year * 12) + (t.month - 1)) + d.Xdm_duration.months in
  let year = if total_months >= 0 then total_months / 12 else (total_months - 11) / 12 in
  let month = total_months - (year * 12) + 1 in
  let day = min t.day (days_in_month ~year ~month) in
  let shifted = { t with year; month; day } in
  if d.Xdm_duration.seconds = 0. then shifted
  else
    of_epoch_seconds ?tz_minutes:t.tz_minutes
      (to_epoch_seconds shifted +. d.Xdm_duration.seconds)

let difference a b =
  Xdm_duration.make ~seconds:(to_epoch_seconds a -. to_epoch_seconds b) ()

let pp ppf t = Format.pp_print_string ppf (date_time_to_string t)
