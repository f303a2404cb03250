(* The XML parser as it was before the offset-only scanner: it tracks
   line and column on every byte, compares lookaheads through
   substrings and copies text through a buffer. Kept as test code only,
   as the oracle the library's parser must match tree for tree and
   error for error. It shares the library's types and its
   [Xml_escape]. *)

open Xmlb

type tree = Xml_parser.tree =
  | Element of Qname.t * attribute list * tree list
  | Text of string
  | Comment of string
  | Pi of string * string

and attribute = Xml_parser.attribute = { name : Qname.t; value : string }

type options = Xml_parser.options = { uppercase_tags : bool }

let default_options = Xml_parser.default_options

let error_at line col message = raise (Xml_parser.Parse_error { line; col; message })

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  options : options;
  qnames : (string, Qname.t) Hashtbl.t;
      (* raw token -> parsed name: each distinct name in a document is
         split and interned exactly once, repeats share one record *)
}

let qname_of st raw =
  match Hashtbl.find_opt st.qnames raw with
  | Some qn -> qn
  | None ->
      let qn = Qname.of_string raw in
      Hashtbl.replace st.qnames raw qn;
      qn

let error st message = error_at st.line st.col message

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then String.iter (fun _ -> advance st) s
  else error st (Printf.sprintf "expected %S" s)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' || c = ':'

let read_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Read text until the next '<'; expand entities. *)
let read_text st =
  let start = st.pos in
  while (not (eof st)) && peek st <> '<' do
    advance st
  done;
  let raw = String.sub st.src start (st.pos - start) in
  try Xml_escape.unescape raw
  with Failure m | Xml_escape.Invalid_char_ref m -> error st m

let read_until st delim =
  match
    let n = String.length st.src and d = String.length delim in
    let rec find i =
      if i + d > n then None
      else if String.sub st.src i d = delim then Some i
      else find (i + 1)
    in
    find st.pos
  with
  | None -> error st (Printf.sprintf "unterminated construct, expected %S" delim)
  | Some i ->
      let content = String.sub st.src st.pos (i - st.pos) in
      while st.pos < i + String.length delim do
        advance st
      done;
      content

let read_attr_value st =
  let q = peek st in
  if q <> '"' && q <> '\'' then error st "expected quoted attribute value";
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek st <> q do
    advance st
  done;
  if eof st then error st "unterminated attribute value";
  let raw = String.sub st.src start (st.pos - start) in
  advance st;
  try Xml_escape.unescape raw
  with Failure m | Xml_escape.Invalid_char_ref m -> error st m

(* Parse attributes up to '>' or '/>'. Returns (attrs, self_closing). *)
let rec read_attributes st acc =
  skip_space st;
  if looking_at st "/>" then begin
    expect st "/>";
    (List.rev acc, true)
  end
  else if peek st = '>' then begin
    advance st;
    (List.rev acc, false)
  end
  else begin
    let name = read_name st in
    skip_space st;
    let value =
      if peek st = '=' then begin
        advance st;
        skip_space st;
        read_attr_value st
      end
      else name (* HTML-style boolean attribute *)
    in
    read_attributes st ({ name = qname_of st name; value } :: acc)
  end

let apply_case st name =
  if st.options.uppercase_tags then String.uppercase_ascii name else name

(* Split namespace declarations out of an attribute list, extend [env],
   and resolve remaining attribute and element names. *)
let resolve_namespaces st env name attrs =
  let env =
    List.fold_left
      (fun env { name = n; value } ->
        match (n.Qname.prefix, n.Qname.local) with
        | None, "xmlns" ->
            Qname.Env.bind_default env
              ~uri:(if value = "" then None else Some value)
        | Some "xmlns", p -> Qname.Env.bind env ~prefix:p ~uri:value
        | _ -> env)
      env attrs
  in
  let plain_attrs =
    List.filter
      (fun { name = n; _ } ->
        not
          (n.Qname.prefix = Some "xmlns"
          || (n.Qname.prefix = None && n.Qname.local = "xmlns")))
      attrs
  in
  let resolve_attr a =
    match a.name.Qname.prefix with
    | None -> a
    | Some _ -> (
        try { a with name = Qname.Env.resolve env ~use_default:false a.name }
        with Failure m -> error st m)
  in
  let name =
    try Qname.Env.resolve env ~use_default:true name
    with Failure m -> error st m
  in
  (env, name, List.map resolve_attr plain_attrs)

let rec parse_content st env close_name acc =
  if eof st then
    match close_name with
    | None -> List.rev acc
    | Some n -> error st (Printf.sprintf "unclosed element <%s>" n)
  else if peek st = '<' then
    if looking_at st "</" then begin
      expect st "</";
      let name = apply_case st (read_name st) in
      skip_space st;
      expect st ">";
      match close_name with
      | Some n when String.equal n name -> List.rev acc
      | Some n ->
          error st (Printf.sprintf "mismatched close tag </%s>, expected </%s>" name n)
      | None -> error st (Printf.sprintf "unexpected close tag </%s>" name)
    end
    else if looking_at st "<!--" then begin
      expect st "<!--";
      let c = read_until st "-->" in
      parse_content st env close_name (Comment c :: acc)
    end
    else if looking_at st "<![CDATA[" then begin
      expect st "<![CDATA[";
      let c = read_until st "]]>" in
      parse_content st env close_name (Text c :: acc)
    end
    else if looking_at st "<!DOCTYPE" || looking_at st "<!doctype" then begin
      let _ = read_until st ">" in
      parse_content st env close_name acc
    end
    else if looking_at st "<?" then begin
      expect st "<?";
      let target = read_name st in
      skip_space st;
      let data = read_until st "?>" in
      if String.lowercase_ascii target = "xml" then
        parse_content st env close_name acc
      else parse_content st env close_name (Pi (target, data) :: acc)
    end
    else begin
      let el = parse_element st env in
      parse_content st env close_name (el :: acc)
    end
  else begin
    let text = read_text st in
    let acc = if text <> "" then Text text :: acc else acc in
    parse_content st env close_name acc
  end

and parse_element st env =
  expect st "<";
  let raw_name = apply_case st (read_name st) in
  let attrs, self_closing = read_attributes st [] in
  let env, name, attrs =
    resolve_namespaces st env (qname_of st raw_name) attrs
  in
  if self_closing then Element (name, attrs, [])
  else if is_raw_text_element raw_name then begin
    (* script/style content is raw text up to the close tag, like an
       HTML parser: '<' and '&' inside code need no escaping *)
    let close = "</" ^ raw_name in
    let raw = read_until_ci st close in
    skip_space st;
    expect st ">";
    let body = strip_cdata_markers raw in
    let children = if String.trim body = "" then [] else [ Text body ] in
    Element (name, attrs, children)
  end
  else
    let children = parse_content st env (Some raw_name) [] in
    Element (name, attrs, children)

and is_raw_text_element raw_name =
  match String.lowercase_ascii raw_name with
  | "script" | "style" -> true
  | _ -> false

(* inside raw script text, XHTML-style CDATA wrappers are transparent *)
and strip_cdata_markers s =
  let drop marker s =
    let ml = String.length marker in
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i >= String.length s then Buffer.contents buf
      else if i + ml <= String.length s && String.sub s i ml = marker then
        go (i + ml)
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0
  in
  drop "<![CDATA[" (drop "]]>" s)

(* case-insensitive read_until for HTML close tags *)
and read_until_ci st delim =
  let lsrc = String.lowercase_ascii st.src and ldelim = String.lowercase_ascii delim in
  let n = String.length lsrc and d = String.length ldelim in
  let rec find i =
    if i + d > n then error st (Printf.sprintf "unterminated element, expected %S" delim)
    else if String.sub lsrc i d = ldelim then i
    else find (i + 1)
  in
  let e = find st.pos in
  let content = String.sub st.src st.pos (e - st.pos) in
  while st.pos < e + d do
    advance st
  done;
  content

let parse ?(options = default_options) src =
  let st =
    { src; pos = 0; line = 1; col = 1; options; qnames = Hashtbl.create 32 }
  in
  let items = parse_content st Qname.Env.empty None [] in
  List.filter
    (function Text t -> not (String.for_all is_space t) | _ -> true)
    items
