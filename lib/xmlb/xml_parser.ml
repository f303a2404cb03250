type tree =
  | Element of Qname.t * attribute list * tree list
  | Text of string
  | Comment of string
  | Pi of string * string

and attribute = { name : Qname.t; value : string }

type options = { uppercase_tags : bool }

let default_options = { uppercase_tags = false }

type ('n, 'e) builder = {
  open_ : Qname.t -> attribute list -> 'e;
  close : 'e -> 'n list -> 'n;
  text : string -> 'n;
  comment : string -> 'n;
  pi : string -> string -> 'n;
}

exception Parse_error of { line : int; col : int; message : string }

(* The scanner keeps only a byte offset: lookaheads compare bytes in
   place, a text or attribute value is one substring unless it holds a
   reference, and line and column are counted from the offset when an
   error is raised. *)
type state = {
  src : string;
  mutable pos : int;
  options : options;
  qnames : (string, Qname.t) Hashtbl.t;
      (* raw token -> parsed name: each distinct name in a document is
         split exactly once, repeats share one record *)
  elem_names : known option array;
  attr_names : known option array;
      (* recently read names, direct-mapped by length and end bytes and
         matched in place, so a repeated name costs no copy and no hash *)
  mutable self_closing : bool;  (* the last start tag ended with "/>" *)
}

(* a name as written, as used (for elements, with the case option
   applied), and parsed *)
and known = { token : string; cased : string; qn : Qname.t }

let qname_of st raw =
  match Hashtbl.find st.qnames raw with
  | qn -> qn
  | exception Not_found ->
      let qn = Qname.of_string raw in
      Hashtbl.replace st.qnames raw qn;
      qn

let error st message =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to st.pos - 1 do
    if String.unsafe_get st.src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Parse_error { line = !line; col = st.pos - !bol + 1; message })

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else String.unsafe_get st.src st.pos

(* [m] occurs in [s] at offset [i], byte for byte or, when [ci], with
   ASCII letters folded to lower case (a closure-free loop: it runs at
   every lookahead) *)
let rec occurs_from ci s i m k =
  k = String.length m
  ||
  let c = String.unsafe_get s (i + k) and d = String.unsafe_get m k in
  (c = d || (ci && Char.lowercase_ascii c = Char.lowercase_ascii d))
  && occurs_from ci s i m (k + 1)

let occurs ?(ci = false) s i m =
  i + String.length m <= String.length s && occurs_from ci s i m 0

let looking_at st s = occurs st.src st.pos s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st (Printf.sprintf "expected %S" s)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Scans are closure-free loops over the source. The first offset from
   [i] on that is not a space, or that holds [c]; the source's length
   if there is none. *)
let rec after_space s i =
  if i < String.length s && is_space (String.unsafe_get s i) then after_space s (i + 1) else i

let rec index_from s i c =
  if i >= String.length s || String.unsafe_get s i = c then i else index_from s (i + 1) c

let skip_space st = st.pos <- after_space st.src st.pos

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' || c = ':'

let rec after_name s i =
  if i < String.length s && is_name_char (String.unsafe_get s i) then after_name s (i + 1) else i

(* the offset just past the name starting at [st.pos] *)
let name_end st =
  if not (is_name_start (peek st)) then error st "expected a name";
  after_name st.src (st.pos + 1)

let read_name st =
  let start = st.pos in
  st.pos <- name_end st;
  String.sub st.src start (st.pos - start)

(* Bytes [start, stop) with references expanded, failing at [st.pos]:
   a run without '&' is the one substring. *)
let unescaped st start stop =
  try Xml_escape.unescape (String.sub st.src start (stop - start))
  with Failure m | Xml_escape.Invalid_char_ref m -> error st m

(* Read text until the next '<'; expand entities. *)
let read_text st =
  let start = st.pos in
  st.pos <- index_from st.src start '<';
  unescaped st start st.pos

(* the offset of the next [delim] from [st.pos] *)
let find ?ci st delim =
  let last = String.length st.src - String.length delim in
  let rec go i =
    if i > last then None else if occurs ?ci st.src i delim then Some i else go (i + 1)
  in
  go st.pos

let read_until st delim =
  match find st delim with
  | None -> error st (Printf.sprintf "unterminated construct, expected %S" delim)
  | Some i ->
      let content = String.sub st.src st.pos (i - st.pos) in
      st.pos <- i + String.length delim;
      content

let read_attr_value st =
  let q = peek st in
  if q <> '"' && q <> '\'' then error st "expected quoted attribute value";
  let start = st.pos + 1 in
  st.pos <- index_from st.src start q;
  if eof st then error st "unterminated attribute value";
  st.pos <- st.pos + 1;
  unescaped st start (st.pos - 1)

let apply_case st name =
  if st.options.uppercase_tags then String.uppercase_ascii name else name

(* Read the name at [st.pos], through the [cache] of recent names. *)
let read_known st cache ~case =
  let start = st.pos in
  let stop = name_end st in
  st.pos <- stop;
  let len = stop - start in
  let slot =
    (len + (31 * Char.code (String.unsafe_get st.src start))
    + (7 * Char.code (String.unsafe_get st.src (stop - 1))))
    land (Array.length cache - 1)
  in
  match cache.(slot) with
  | Some k when String.length k.token = len && occurs_from false st.src start k.token 0 -> k
  | _ ->
      let token = String.sub st.src start len in
      let cased = if case then apply_case st token else token in
      let k = { token; cased; qn = qname_of st cased } in
      cache.(slot) <- Some k;
      k

(* Parse attributes up to '>' or '/>', in order; [st.self_closing]
   then tells which ended them. *)
let[@tail_mod_cons] rec read_attributes st =
  skip_space st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    st.self_closing <- true;
    []
  end
  else if peek st = '>' then begin
    st.pos <- st.pos + 1;
    st.self_closing <- false;
    []
  end
  else begin
    let k = read_known st st.attr_names ~case:false in
    skip_space st;
    let value =
      if peek st = '=' then begin
        st.pos <- st.pos + 1;
        skip_space st;
        read_attr_value st
      end
      else k.token (* HTML-style boolean attribute *)
    in
    let a = { name = k.qn; value } in
    a :: read_attributes st
  end

let is_xmlns (n : Qname.t) =
  n.Qname.prefix = Some "xmlns" || (n.Qname.prefix = None && n.Qname.local = "xmlns")

let resolve st env ~use_default name =
  try Qname.Env.resolve env ~use_default name with Failure m -> error st m

(* Split namespace declarations out of an attribute list, extend [env],
   and resolve remaining attribute and element names. An element with
   no prefix in scope of no default namespace keeps its parsed name. *)
let resolve_namespaces st env (name : Qname.t) attrs =
  if not (List.exists (fun a -> a.name.Qname.prefix <> None || is_xmlns a.name) attrs)
  then
    let name =
      if name.Qname.prefix = None && Qname.Env.default env = None then name
      else resolve st env ~use_default:true name
    in
    (env, name, attrs)
  else
    let env =
      List.fold_left
        (fun env { name = n; value } ->
          match (n.Qname.prefix, n.Qname.local) with
          | None, "xmlns" ->
              Qname.Env.bind_default env ~uri:(if value = "" then None else Some value)
          | Some "xmlns", p -> Qname.Env.bind env ~prefix:p ~uri:value
          | _ -> env)
        env attrs
    in
    let name = resolve st env ~use_default:true name in
    let resolve_attr a =
      match a.name.Qname.prefix with
      | None -> a
      | Some _ -> { a with name = resolve st env ~use_default:false a.name }
    in
    (env, name, List.map resolve_attr (List.filter (fun a -> not (is_xmlns a.name)) attrs))

(* whitespace as [String.trim] sees it *)
let is_trim_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* [s] without any occurrence of [marker] *)
let drop marker s =
  let ml = String.length marker and n = String.length s in
  let rec first i = if i + ml > n then -1 else if occurs s i marker then i else first (i + 1) in
  let i0 = first 0 in
  if i0 < 0 then s
  else begin
    let buf = Buffer.create n in
    Buffer.add_substring buf s 0 i0;
    let rec go i =
      if i >= n then Buffer.contents buf
      else if occurs s i marker then go (i + ml)
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go i0
  end

(* inside raw script text, XHTML-style CDATA wrappers are transparent *)
let strip_cdata_markers s = drop "<![CDATA[" (drop "]]>" s)

let equal_ci s lower = String.length s = String.length lower && occurs ~ci:true s 0 lower
let is_raw_text_element raw_name = equal_ci raw_name "script" || equal_ci raw_name "style"

(* Read the close tag's name at [st.pos]: [None] when it is [open_name]
   once the case option is applied (compared in place: an upper-cased
   [open_name] matches the source case-insensitively), else the name. *)
let read_close_name st open_name =
  let start = st.pos in
  st.pos <- name_end st;
  let len = st.pos - start in
  if len = String.length open_name && occurs ~ci:st.options.uppercase_tags st.src start open_name
  then None
  else Some (apply_case st (String.sub st.src start len))

(* The content up to [close_name]'s close tag, or to the end of the
   input at the top level, whose whitespace-only text is dropped. Each
   node is made by [b] as the scanner meets it, so in document order:
   an element is opened before its content is read and closed with its
   children. Built in order, without an accumulator to reverse. *)
let[@tail_mod_cons] rec parse_content b st env close_name =
  if eof st then
    match close_name with
    | None -> []
    | Some n -> (error [@tailcall false]) st (Printf.sprintf "unclosed element <%s>" n)
  else if peek st = '<' then
    (* one byte past '<' tells the constructs apart *)
    let next = if st.pos + 1 < String.length st.src then st.src.[st.pos + 1] else '\000' in
    if next = '/' then begin
      st.pos <- st.pos + 2;
      let other =
        (* the close tag's name, unless it closes [close_name] *)
        match close_name with
        | Some n -> read_close_name st n
        | None -> Some (apply_case st (read_name st))
      in
      skip_space st;
      expect st ">";
      match (other, close_name) with
      | None, _ -> []
      | Some name, Some n ->
          (error [@tailcall false]) st
            (Printf.sprintf "mismatched close tag </%s>, expected </%s>" name n)
      | Some name, None ->
          (error [@tailcall false]) st (Printf.sprintf "unexpected close tag </%s>" name)
    end
    else if next = '!' && looking_at st "<!--" then begin
      st.pos <- st.pos + 4;
      let c = b.comment (read_until st "-->") in
      c :: parse_content b st env close_name
    end
    else if next = '!' && looking_at st "<![CDATA[" then begin
      st.pos <- st.pos + 9;
      let c = read_until st "]]>" in
      if close_name = None && String.for_all is_space c then parse_content b st env close_name
      else
        let t = b.text c in
        t :: parse_content b st env close_name
    end
    else if next = '!' && (looking_at st "<!DOCTYPE" || looking_at st "<!doctype") then begin
      ignore (read_until st ">");
      parse_content b st env close_name
    end
    else if next = '?' then begin
      st.pos <- st.pos + 2;
      let target = read_name st in
      skip_space st;
      let data = read_until st "?>" in
      if String.lowercase_ascii target = "xml" then parse_content b st env close_name
      else
        let p = b.pi target data in
        p :: parse_content b st env close_name
    end
    else
      let el = parse_element b st env in
      el :: parse_content b st env close_name
  else
    let text = read_text st in
    if String.length text = 0 || (close_name = None && String.for_all is_space text) then
      parse_content b st env close_name
    else
      let t = b.text text in
      t :: parse_content b st env close_name

and parse_element b st env =
  st.pos <- st.pos + 1 (* '<' *);
  let k = read_known st st.elem_names ~case:true in
  let raw_name = k.cased in
  let attrs = read_attributes st in
  let self_closing = st.self_closing in
  let env, name, attrs = resolve_namespaces st env k.qn attrs in
  let el = b.open_ name attrs in
  if self_closing then b.close el []
  else if is_raw_text_element raw_name then begin
    (* script/style content is raw text up to the close tag, like an
       HTML parser: '<' and '&' inside code need no escaping *)
    let close = "</" ^ raw_name in
    match find ~ci:true st close with
    | None -> error st (Printf.sprintf "unterminated element, expected %S" close)
    | Some e ->
        let raw = String.sub st.src st.pos (e - st.pos) in
        st.pos <- e + String.length close;
        skip_space st;
        expect st ">";
        let body = strip_cdata_markers raw in
        b.close el (if String.for_all is_trim_space body then [] else [ b.text body ])
  end
  else b.close el (parse_content b st env (Some raw_name))

let build b ?(options = default_options) src =
  let st =
    {
      src;
      pos = 0;
      options;
      qnames = Hashtbl.create 32;
      elem_names = Array.make 64 None;
      attr_names = Array.make 64 None;
      self_closing = false;
    }
  in
  parse_content b st Qname.Env.empty None

let tree_builder =
  {
    open_ = (fun name attrs -> (name, attrs));
    close = (fun (name, attrs) children -> Element (name, attrs, children));
    text = (fun t -> Text t);
    comment = (fun c -> Comment c);
    pi = (fun target data -> Pi (target, data));
  }

let parse ?options src = build tree_builder ?options src

let parse_root ?options src =
  let roots =
    List.filter (function Element _ -> true | _ -> false) (parse ?options src)
  in
  match roots with
  | [ root ] -> root
  | _ ->
      raise
        (Parse_error
           { line = 0; col = 0; message = "document must have exactly one root element" })
