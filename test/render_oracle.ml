(* The text renderer as it was before block memos: one pass over the
   whole tree into one buffer, then a post-pass that splits the text
   into lines, squeezes blank runs, joins and trims. Kept as test code
   only, as the from-scratch oracle that memoized rendering must match. *)

let block_elements =
  [
    "html"; "head"; "body"; "div"; "p"; "ul"; "ol"; "li"; "table"; "tr";
    "form"; "h1"; "h2"; "h3"; "h4"; "h5"; "h6"; "br"; "hr"; "blockquote";
    "pre"; "section"; "article"; "header"; "footer"; "nav";
  ]

let skip_elements = [ "script"; "style"; "title"; "meta"; "link" ]

let local_of node =
  match Dom.name node with
  | Some q -> String.lowercase_ascii q.Xmlb.Qname.local
  | None -> ""

let is_hidden node =
  match Xquery.Style_util.get_on_node node "display" with
  | Some "none" -> true
  | _ -> false

(* greedy wrap of a word list to [width] *)
let wrap_words width words =
  let lines = ref [] in
  let current = Buffer.create width in
  let flush () =
    if Buffer.length current > 0 then begin
      lines := Buffer.contents current :: !lines;
      Buffer.clear current
    end
  in
  List.iter
    (fun w ->
      if Buffer.length current = 0 then Buffer.add_string current w
      else if Buffer.length current + 1 + String.length w <= width then begin
        Buffer.add_char current ' ';
        Buffer.add_string current w
      end
      else begin
        flush ();
        Buffer.add_string current w
      end)
    words;
  flush ();
  List.rev !lines

let words_of_text s =
  String.split_on_char ' '
    (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")

(* The renderer accumulates inline words until a block boundary, then
   wraps and emits them. *)
type state = {
  out : Buffer.t;
  mutable inline_words : string list;  (** reversed *)
  opts : Xqib.Renderer.options;
}

let emit_line st line =
  Buffer.add_string st.out line;
  Buffer.add_char st.out '\n'

let flush_inline ?(prefix = "") st =
  match List.rev st.inline_words with
  | [] -> ()
  | words ->
      st.inline_words <- [];
      List.iteri
        (fun i line -> emit_line st (if i = 0 then prefix ^ line else line))
        (wrap_words (st.opts.width - String.length prefix) words)

let add_words st ws = st.inline_words <- List.rev_append ws st.inline_words

let rec render_node st node =
  match Dom.kind node with
  | Dom.Text -> add_words st (words_of_text (Option.value ~default:"" (Dom.value node)))
  | Dom.Comment | Dom.Processing_instruction | Dom.Attribute -> ()
  | Dom.Document -> List.iter (render_node st) (Dom.children node)
  | Dom.Element -> render_element st node

and render_children st node = List.iter (render_node st) (Dom.children node)

and render_element st node =
  let tag = local_of node in
  if List.mem tag skip_elements then ()
  else if (not st.opts.show_hidden) && is_hidden node then ()
  else
    match tag with
    | "br" -> flush_inline st
    | "hr" ->
        flush_inline st;
        emit_line st (String.make st.opts.width '-')
    | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" ->
        flush_inline st;
        let text = String.trim (Dom.string_value node) in
        emit_line st "";
        emit_line st text;
        let underline = if tag = "h1" then '=' else '-' in
        emit_line st (String.make (max 1 (String.length text)) underline)
    | "li" ->
        flush_inline st;
        st.inline_words <- [];
        render_children st node;
        flush_inline ~prefix:"  * " st
    | "tr" ->
        flush_inline st;
        let cells =
          List.filter
            (fun c -> List.mem (local_of c) [ "td"; "th" ])
            (Dom.children node)
        in
        let rendered =
          List.map (fun c -> String.trim (Dom.string_value c)) cells
        in
        if rendered <> [] then emit_line st ("| " ^ String.concat " | " rendered ^ " |")
    | "input" ->
        let value = Option.value ~default:"" (Dom.attribute_local node "value") in
        let ty =
          Option.value ~default:"text" (Dom.attribute_local node "type")
        in
        let widget =
          match ty with
          | "button" | "submit" -> Printf.sprintf "[ %s ]" (if value = "" then "button" else value)
          | "checkbox" -> "[x]"
          | _ -> Printf.sprintf "[%-10s]" value
        in
        add_words st [ widget ]
    | "button" ->
        add_words st [ Printf.sprintf "[ %s ]" (String.trim (Dom.string_value node)) ]
    | "img" ->
        let alt =
          match Dom.attribute_local node "alt" with
          | Some a when a <> "" -> a
          | _ -> Option.value ~default:"image" (Dom.attribute_local node "src")
        in
        add_words st [ Printf.sprintf "[img: %s]" alt ]
    | "a" ->
        render_children st node;
        (match Dom.attribute_local node "href" with
        | Some href -> add_words st [ Printf.sprintf "<%s>" href ]
        | None -> ())
    | "pre" ->
        flush_inline st;
        String.split_on_char '\n' (Dom.string_value node)
        |> List.iter (fun l -> emit_line st ("    " ^ l))
    | tag when List.mem tag block_elements ->
        flush_inline st;
        render_children st node;
        flush_inline st
    | _ ->
        (* inline element: flow its content *)
        render_children st node

let render (options : Xqib.Renderer.options) node =
  let go () =
  let st = { out = Buffer.create 256; inline_words = []; opts = options } in
  render_node st node;
  flush_inline st;
  (* collapse runs of blank lines *)
  let lines = String.split_on_char '\n' (Buffer.contents st.out) in
  let rec squeeze = function
    | "" :: ("" :: _ as rest) -> squeeze rest
    | x :: rest -> x :: squeeze rest
    | [] -> []
  in
  let text = String.concat "\n" (squeeze lines) in
  (* strip leading/trailing blank space produced by block flushing *)
  String.trim text
  in
  go ()

