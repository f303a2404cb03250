(* Each escape has a 256-slot replacement table, so the per-string
   scan does one array load per byte. [into] appends the
   escaped string to a buffer, copying unescaped runs with
   [Buffer.add_substring] and allocating nothing of its own; [escape]
   returns the input unchanged without allocating when there is nothing
   to escape. *)
let table specials =
  let tbl = Array.make 256 None in
  List.iter (fun (c, rep) -> tbl.(Char.code c) <- Some rep) specials;
  tbl

(* the first offset from [i] on whose byte [tbl] replaces, or -1 *)
let rec first_special tbl s i =
  if i >= String.length s then -1
  else
    match Array.unsafe_get tbl (Char.code (String.unsafe_get s i)) with
    | Some _ -> i
    | None -> first_special tbl s (i + 1)

(* [s] from [i0], the offset of its first special byte, escaped *)
let add_from tbl buf s i0 =
  let n = String.length s in
  Buffer.add_substring buf s 0 i0;
  let run_start = ref i0 in
  for i = i0 to n - 1 do
    match Array.unsafe_get tbl (Char.code (String.unsafe_get s i)) with
    | Some rep ->
        if i > !run_start then Buffer.add_substring buf s !run_start (i - !run_start);
        Buffer.add_string buf rep;
        run_start := i + 1
    | None -> ()
  done;
  if n > !run_start then Buffer.add_substring buf s !run_start (n - !run_start)

let into tbl buf s =
  let i0 = first_special tbl s 0 in
  if i0 < 0 then Buffer.add_string buf s else add_from tbl buf s i0

let escape tbl s =
  let i0 = first_special tbl s 0 in
  if i0 < 0 then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    add_from tbl buf s i0;
    Buffer.contents buf
  end

let text_table = table [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;") ]

let attribute_table =
  table [ ('&', "&amp;"); ('<', "&lt;"); ('>', "&gt;"); ('"', "&quot;") ]

let text s = escape text_table s
let attribute s = escape attribute_table s
let add_text buf s = into text_table buf s
let add_attribute buf s = into attribute_table buf s

let utf8_of_code_point cp =
  let buf = Buffer.create 4 in
  if cp < 0 then failwith "negative code point"
  else if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp <= 0x10FFFF then begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else failwith "code point out of range";
  Buffer.contents buf

let code_points s =
  let n = String.length s in
  let rec cont i need acc =
    if need = 0 then (acc, i)
    else if i >= n then failwith "invalid UTF-8: truncated sequence"
    else
      let b = Char.code s.[i] in
      if b land 0xC0 <> 0x80 then failwith "invalid UTF-8: bad continuation"
      else cont (i + 1) (need - 1) ((acc lsl 6) lor (b land 0x3F))
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let b = Char.code s.[i] in
      if b < 0x80 then go (i + 1) (b :: acc)
      else if b land 0xE0 = 0xC0 then
        let cp, j = cont (i + 1) 1 (b land 0x1F) in
        go j (cp :: acc)
      else if b land 0xF0 = 0xE0 then
        let cp, j = cont (i + 1) 2 (b land 0x0F) in
        go j (cp :: acc)
      else if b land 0xF8 = 0xF0 then
        let cp, j = cont (i + 1) 3 (b land 0x07) in
        go j (cp :: acc)
      else failwith "invalid UTF-8: bad leading byte"
  in
  go 0 []

(* XML 1.0's Char production: the code points a document may contain *)
let xml_char cp =
  cp = 0x9 || cp = 0xA || cp = 0xD
  || (cp >= 0x20 && cp <= 0xD7FF)
  || (cp >= 0xE000 && cp <= 0xFFFD)
  || (cp >= 0x10000 && cp <= 0x10FFFF)

exception Invalid_char_ref of string

(* The code point of a character reference's body ("#65", "#x41"), or
   [-1] unless its digits are well formed and name an XML character.
   Only a lower-case 'x' marks hex digits (XML 1.0 [66], XQuery's
   CharRef), so "#X41" is malformed. Digits past 0x10FFFF stop the
   scan, so no body overflows. *)
let char_ref_code ent =
  let n = String.length ent in
  let hex = n > 1 && ent.[1] = 'x' in
  let first = if hex then 2 else 1 in
  let rec go i acc =
    if i >= n then acc
    else
      let d =
        match ent.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | ('a' .. 'f' | 'A' .. 'F') as c when hex -> (Char.code c lor 0x20) - 87
        | _ -> -1
      in
      if d < 0 then -1
      else
        let acc = (acc * if hex then 16 else 10) + d in
        if acc > 0x10FFFF then -1 else go (i + 1) acc
  in
  let cp = if n > first then go first 0 else -1 in
  if cp >= 0 && xml_char cp then cp else -1

let expand ent =
  match ent with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | "nbsp" -> "\xC2\xA0"
  | _ when String.length ent > 0 && ent.[0] = '#' ->
      let cp = char_ref_code ent in
      if cp < 0 then
        raise (Invalid_char_ref (Printf.sprintf "invalid character reference &%s;" ent))
      else utf8_of_code_point cp
  | _ -> failwith (Printf.sprintf "unknown entity reference &%s;" ent)

(* Input without '&' is returned as is; otherwise the runs between
   references are copied whole. *)
let unescape s =
  match String.index_opt s '&' with
  | None -> s
  | Some amp ->
      let n = String.length s in
      let buf = Buffer.create n in
      let rec go start i =
        (* [start]: first byte not yet copied; [i]: the next '&', or [n] *)
        Buffer.add_substring buf s start (i - start);
        if i >= n then Buffer.contents buf
        else
          match String.index_from_opt s i ';' with
          | None -> failwith "malformed entity reference: missing ';'"
          | Some j ->
              Buffer.add_string buf (expand (String.sub s (i + 1) (j - i - 1)));
              go (j + 1) (Option.value ~default:n (String.index_from_opt s (j + 1) '&'))
      in
      go 0 amp
