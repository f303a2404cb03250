type token =
  | T_integer of int
  | T_decimal of float
  | T_double of float
  | T_string of string
  | T_name of string
  | T_qname of string * string
  | T_ns_wildcard of string
  | T_local_wildcard of string
  | T_var of string * string option
  | T_lpar
  | T_rpar
  | T_lbracket
  | T_rbracket
  | T_lbrace
  | T_rbrace
  | T_comma
  | T_semi
  | T_dot
  | T_dotdot
  | T_slash
  | T_slashslash
  | T_at
  | T_colonequals
  | T_coloncolon
  | T_star
  | T_plus
  | T_minus
  | T_eq
  | T_ne
  | T_lt
  | T_le
  | T_gt
  | T_ge
  | T_ltlt
  | T_gtgt
  | T_vbar
  | T_question
  | T_tag_open
  | T_pragma of string
  | T_eof

(* Tokens keep only their start offset; line and column are counted
   from it when an error is raised or [position] is asked, so lexing is
   linear in the source. *)
type t = {
  src : string;
  mutable pos : int;  (** raw position: start of the cached token if any *)
  mutable cached : (token * int) option;  (** token and position after it *)
  mutable tok_start : int;  (** offset of the last token lexed *)
}

let create src = { src; pos = 0; cached = None; tok_start = 0 }

let line_col src pos =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min (pos - 1) (String.length src - 1) do
    if src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

(* raise [code] located at offset [at] of [src] *)
let err_code_at code src at fmt =
  Printf.ksprintf
    (fun m ->
      let line, col = line_col src at in
      Xq_error.raise_error code "line %d, col %d: %s" line col m)
    fmt

let err_at src at fmt = err_code_at Xq_error.syntax src at fmt
let error lx fmt = err_at lx.src lx.pos fmt

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || Char.code c >= 0x80

let is_name_char c = is_name_start c || is_digit c || c = '-' || c = '.'

(* skip whitespace and (: nested comments :) starting at [i] *)
let rec skip_ignorable src i =
  let n = String.length src in
  if i >= n then i
  else if is_space src.[i] then skip_ignorable src (i + 1)
  else if i + 1 < n && src.[i] = '(' && src.[i + 1] = ':' then begin
    let rec comment i depth =
      if i + 1 >= n then failwith "unterminated comment"
      else if src.[i] = '(' && src.[i + 1] = ':' then comment (i + 2) (depth + 1)
      else if src.[i] = ':' && src.[i + 1] = ')' then
        if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
      else comment (i + 1) depth
    in
    skip_ignorable src (comment (i + 2) 1)
  end
  else i

let read_ncname src i =
  let n = String.length src in
  let j = ref i in
  while !j < n && is_name_char src.[!j] do
    incr j
  done;
  (String.sub src i (!j - i), !j)

let read_string_literal src i =
  let n = String.length src in
  let q = src.[i] in
  let buf = Buffer.create 16 in
  let rec go k =
    if k >= n then err_at src i "unterminated string literal"
    else if src.[k] = q then
      if k + 1 < n && src.[k + 1] = q then begin
        Buffer.add_char buf q;
        go (k + 2)
      end
      else (Buffer.contents buf, k + 1)
    else begin
      Buffer.add_char buf src.[k];
      go (k + 1)
    end
  in
  let raw, j = go (i + 1) in
  let expanded =
    try Xmlb.Xml_escape.unescape raw with
    | Failure m -> err_at src i "%s" m
    | Xmlb.Xml_escape.Invalid_char_ref m -> err_code_at "XQST0090" src i "%s" m
  in
  (expanded, j)

let read_number src i =
  let n = String.length src in
  let j = ref i in
  while !j < n && is_digit src.[!j] do
    incr j
  done;
  let is_decimal = ref false and is_double = ref false in
  if !j < n && src.[!j] = '.' && !j + 1 < n && is_digit src.[!j + 1] then begin
    is_decimal := true;
    incr j;
    while !j < n && is_digit src.[!j] do
      incr j
    done
  end
  else if !j < n && src.[!j] = '.' && !j = i then
    err_at src i "malformed number";
  if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
    let k = ref (!j + 1) in
    if !k < n && (src.[!k] = '+' || src.[!k] = '-') then incr k;
    if !k < n && is_digit src.[!k] then begin
      is_double := true;
      j := !k;
      while !j < n && is_digit src.[!j] do
        incr j
      done
    end
  end;
  let text = String.sub src i (!j - i) in
  let tok =
    if !is_double then T_double (float_of_string text)
    else if !is_decimal then T_decimal (float_of_string text)
    else
      match int_of_string_opt text with
      | Some v -> T_integer v
      | None ->
          err_code_at "FOAR0002" src i "the integer literal %s is larger than %d" text max_int
  in
  (tok, !j)

let lex_from lx i =
  let src = lx.src in
  let n = String.length src in
  let i = try skip_ignorable src i with Failure m -> error lx "%s" m in
  lx.tok_start <- i;
  if i >= n then (T_eof, i)
  else
    let c = src.[i] in
    (* the byte after [c], compared in place *)
    let next = if i + 1 < n then src.[i + 1] else '\000' in
    match c with
    | '(' when next = '#' -> (
        (* pragma: (# name content #) *)
        let rec find j =
          if j + 1 >= n then err_at src i "unterminated pragma"
          else if src.[j] = '#' && src.[j + 1] = ')' then j
          else find (j + 1)
        in
        let e = find (i + 2) in
        (T_pragma (String.trim (String.sub src (i + 2) (e - i - 2))), e + 2))
    | '(' -> (T_lpar, i + 1)
    | ')' -> (T_rpar, i + 1)
    | '[' -> (T_lbracket, i + 1)
    | ']' -> (T_rbracket, i + 1)
    | '{' -> (T_lbrace, i + 1)
    | '}' -> (T_rbrace, i + 1)
    | ',' -> (T_comma, i + 1)
    | ';' -> (T_semi, i + 1)
    | '?' -> (T_question, i + 1)
    | '@' -> (T_at, i + 1)
    | '|' -> (T_vbar, i + 1)
    | '+' -> (T_plus, i + 1)
    | '-' -> (T_minus, i + 1)
    | '=' -> (T_eq, i + 1)
    | '!' when next = '=' -> (T_ne, i + 1 + 1)
    | '!' -> err_at src i "unexpected character '!'"
    | '<' when next = '<' -> (T_ltlt, i + 2)
    | '<' when next = '=' -> (T_le, i + 2)
    | '<' when i + 1 < n && (is_name_start src.[i + 1] || src.[i + 1] = '/' || src.[i + 1] = '!' || src.[i + 1] = '?') ->
        (T_tag_open, i + 1)
    | '<' -> (T_lt, i + 1)
    | '>' when next = '>' -> (T_gtgt, i + 2)
    | '>' when next = '=' -> (T_ge, i + 2)
    | '>' -> (T_gt, i + 1)
    | ':' when next = '=' -> (T_colonequals, i + 2)
    | ':' when next = ':' -> (T_coloncolon, i + 2)
    | ':' -> err_at src i "unexpected ':'"
    | '/' when next = '/' -> (T_slashslash, i + 2)
    | '/' -> (T_slash, i + 1)
    | '.' when next = '.' -> (T_dotdot, i + 2)
    | '.' when i + 1 < n && is_digit src.[i + 1] ->
        read_number src i
    | '.' -> (T_dot, i + 1)
    | '*' when next = ':' && i + 2 < n && is_name_start src.[i + 2] ->
        let name, j = read_ncname src (i + 2) in
        (T_local_wildcard name, j)
    | '*' -> (T_star, i + 1)
    | '$' ->
        if i + 1 >= n || not (is_name_start src.[i + 1]) then
          err_at src i "expected variable name after '$'"
        else begin
          let name, j = read_ncname src (i + 1) in
          if j < n && src.[j] = ':' && j + 1 < n && is_name_start src.[j + 1] then
            let local, k = read_ncname src (j + 1) in
            (T_var (local, Some name), k)
          else (T_var (name, None), j)
        end
    | '"' | '\'' ->
        let s, j = read_string_literal src i in
        (T_string s, j)
    | c when is_digit c -> read_number src i
    | c when is_name_start c ->
        let name, j = read_ncname src i in
        if j < n && src.[j] = ':' then
          if j + 1 < n && is_name_start src.[j + 1] then
            (* avoid consuming axis '::' as QName *)
            let local, k = read_ncname src (j + 1) in
            (T_qname (name, local), k)
          else if j + 1 < n && src.[j + 1] = '*' then
            (T_ns_wildcard name, j + 2)
          else (T_name name, j)
        else (T_name name, j)
    | c -> err_at src i "unexpected character %C" c

let peek lx =
  match lx.cached with
  | Some (tok, _) -> tok
  | None ->
      let tok, after = lex_from lx lx.pos in
      lx.cached <- Some (tok, after);
      tok

let next lx =
  let tok = peek lx in
  (match lx.cached with
  | Some (_, after) -> lx.pos <- after
  | None -> ());
  lx.cached <- None;
  tok

let position lx =
  ignore (peek lx);
  line_col lx.src lx.tok_start

(* ------------- raw access ------------- *)

let invalidate lx = lx.cached <- None

let raw_peek lx =
  invalidate lx;
  if lx.pos >= String.length lx.src then None else Some lx.src.[lx.pos]

let raw_next lx =
  invalidate lx;
  if lx.pos >= String.length lx.src then None
  else begin
    let c = lx.src.[lx.pos] in
    lx.pos <- lx.pos + 1;
    Some c
  end

let raw_looking_at lx s =
  invalidate lx;
  let n = String.length s in
  lx.pos + n <= String.length lx.src && String.sub lx.src lx.pos n = s

let raw_skip lx n =
  invalidate lx;
  lx.pos <- min (String.length lx.src) (lx.pos + n)

let raw_until lx delim =
  invalidate lx;
  let n = String.length lx.src and d = String.length delim in
  let rec find i =
    if i + d > n then error lx "expected %S before end of input" delim
    else if String.sub lx.src i d = delim then i
    else find (i + 1)
  in
  let e = find lx.pos in
  let content = String.sub lx.src lx.pos (e - lx.pos) in
  lx.pos <- e + d;
  content

let raw_read_name lx =
  invalidate lx;
  match raw_peek lx with
  | Some c when is_name_start c ->
      let name, j = read_ncname lx.src lx.pos in
      let name, j =
        if j < String.length lx.src && lx.src.[j] = ':' && j + 1 < String.length lx.src
           && is_name_start lx.src.[j + 1]
        then
          let local, k = read_ncname lx.src (j + 1) in
          (name ^ ":" ^ local, k)
        else (name, j)
      in
      lx.pos <- j;
      name
  | _ -> error lx "expected a name"

let raw_skip_space lx =
  invalidate lx;
  while lx.pos < String.length lx.src && is_space lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done

let token_to_string = function
  | T_integer i -> string_of_int i
  | T_decimal f | T_double f -> string_of_float f
  | T_string s -> Printf.sprintf "%S" s
  | T_name n -> n
  | T_qname (p, l) -> p ^ ":" ^ l
  | T_ns_wildcard p -> p ^ ":*"
  | T_local_wildcard l -> "*:" ^ l
  | T_var (l, None) -> "$" ^ l
  | T_var (l, Some p) -> "$" ^ p ^ ":" ^ l
  | T_lpar -> "("
  | T_rpar -> ")"
  | T_lbracket -> "["
  | T_rbracket -> "]"
  | T_lbrace -> "{"
  | T_rbrace -> "}"
  | T_comma -> ","
  | T_semi -> ";"
  | T_dot -> "."
  | T_dotdot -> ".."
  | T_slash -> "/"
  | T_slashslash -> "//"
  | T_at -> "@"
  | T_colonequals -> ":="
  | T_coloncolon -> "::"
  | T_star -> "*"
  | T_plus -> "+"
  | T_minus -> "-"
  | T_eq -> "="
  | T_ne -> "!="
  | T_lt -> "<"
  | T_le -> "<="
  | T_gt -> ">"
  | T_ge -> ">="
  | T_ltlt -> "<<"
  | T_gtgt -> ">>"
  | T_vbar -> "|"
  | T_question -> "?"
  | T_tag_open -> "<tag"
  | T_pragma p -> "(# " ^ p ^ " #)"
  | T_eof -> "<eof>"

type snapshot = int * (token * int) option

let save lx = (lx.pos, lx.cached)

let restore lx (pos, cached) =
  lx.pos <- pos;
  lx.cached <- cached
