type options = { width : int; show_hidden : bool }

let default_options = { width = 72; show_hidden = false }

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

(* Output is built as a rope. A block element's lines depend only on
   its subtree and the options: inline words are flushed before and
   after it. So each block's rendering is a piece, kept in the tree's
   memo table, and a re-render re-renders only the blocks whose memo a
   write dropped, then copies every piece out once. Runs of blank lines
   are squeezed as lines are emitted: within a leaf here, and across
   leaf boundaries when the rope is copied out. *)
type piece = Leaf of string | Cat of piece list

type Dom.memo += Block of piece | Page of string

type state = {
  opts : options;
  memos : (int, Dom.memo) Hashtbl.t option;  (** block memos, when kept *)
  cur : Buffer.t;  (** the lines of the current leaf *)
  mutable blank : bool;  (** the last line of [cur] is blank *)
  mutable parts : piece list;  (** the current block's pieces, reversed *)
  mutable inline_words : string list;  (** reversed *)
}

let emit_one st line =
  if line = "" then begin
    if not st.blank then begin
      Buffer.add_char st.cur '\n';
      st.blank <- true
    end
  end
  else begin
    Buffer.add_string st.cur line;
    Buffer.add_char st.cur '\n';
    st.blank <- false
  end

(* A line may hold newlines of its own (a heading's or a cell's text, a
   word from an attribute): each part is a line of the output. *)
let emit_line st line =
  if String.contains line '\n' then List.iter (emit_one st) (String.split_on_char '\n' line)
  else emit_one st line

(* Close the current leaf; the next one starts as if after a non-blank
   line, and the copy-out squeezes across the boundary. *)
let close_leaf st =
  if Buffer.length st.cur > 0 then begin
    st.parts <- Leaf (Buffer.contents st.cur) :: st.parts;
    Buffer.clear st.cur
  end;
  st.blank <- false

let flush_inline ?(prefix = "") st =
  match List.rev st.inline_words with
  | [] -> ()
  | words ->
      st.inline_words <- [];
      List.iteri
        (fun i line -> emit_line st (if i = 0 then prefix ^ line else line))
        (wrap_words (st.opts.width - String.length prefix) words)

let add_words st ws = st.inline_words <- List.rev_append ws st.inline_words

let metric name = if !Obs.Metrics.enabled then Obs.Metrics.incr name

let rec render_node st node =
  match Dom.kind node with
  | Dom.Text -> add_words st (words_of_text (Option.value ~default:"" (Dom.value node)))
  | Dom.Comment | Dom.Processing_instruction | Dom.Attribute -> ()
  | Dom.Document -> List.iter (render_node st) (Dom.children node)
  | Dom.Element -> render_element st node

and render_children st node = List.iter (render_node st) (Dom.children node)

and render_element st node =
  metric "render.elements";
  let tag = local_of node in
  if List.mem tag skip_elements then ()
  else if (not st.opts.show_hidden) && is_hidden node then ()
  else
    match tag with
    | "br" -> flush_inline st
    | tag when List.mem tag block_elements -> render_block st node tag
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
    | _ ->
        (* inline element: flow its content *)
        render_children st node

(* A block element: its memo when it has one, else its lines, which
   become its memo. *)
and render_block st node tag =
  flush_inline st;
  close_leaf st;
  let memo =
    match st.memos with
    | Some t -> (
        match Hashtbl.find_opt t (Dom.id node) with Some (Block p) -> Some p | _ -> None)
    | None -> None
  in
  let piece =
    match memo with
    | Some p ->
        metric "render.block.hit";
        p
    | None ->
        metric "render.block.miss";
        let outer = st.parts in
        st.parts <- [];
        block_lines st node tag;
        close_leaf st;
        let p = match st.parts with [ p ] -> p | ps -> Cat (List.rev ps) in
        st.parts <- outer;
        Option.iter (fun t -> Hashtbl.replace t (Dom.id node) (Block p)) st.memos;
        p
  in
  match piece with Cat [] -> () | p -> st.parts <- p :: st.parts

(* The lines of a block element; inline words are empty before and
   after. *)
and block_lines st node tag =
  match tag with
  | "hr" -> emit_line st (String.make st.opts.width '-')
  | "h1" | "h2" | "h3" | "h4" | "h5" | "h6" ->
      let text = String.trim (Dom.string_value node) in
      emit_line st "";
      emit_line st text;
      let underline = if tag = "h1" then '=' else '-' in
      emit_line st (String.make (max 1 (String.length text)) underline)
  | "li" ->
      render_children st node;
      flush_inline ~prefix:"  * " st
  | "tr" ->
      let cells =
        List.filter
          (fun c -> List.mem (local_of c) [ "td"; "th" ])
          (Dom.children node)
      in
      let rendered =
        List.map (fun c -> String.trim (Dom.string_value c)) cells
      in
      if rendered <> [] then emit_line st ("| " ^ String.concat " | " rendered ^ " |")
  | "pre" ->
      String.split_on_char '\n' (Dom.string_value node)
      |> List.iter (fun l -> emit_line st ("    " ^ l))
  | _ ->
      render_children st node;
      flush_inline st

(* Copy the rope out, squeezing a blank line that follows a blank line
   across leaf boundaries, and trim it as [String.trim] would. *)
let copy_out piece =
  let buf = Buffer.create 1024 in
  let blank = ref false in
  let rec add = function
    | Cat ps -> List.iter add ps
    | Leaf s ->
        let n = String.length s in
        let start = if !blank && s.[0] = '\n' then 1 else 0 in
        let len = n - start in
        if len > 0 then begin
          Buffer.add_substring buf s start len;
          blank :=
            (len = 1 && s.[start] = '\n')
            || (len >= 2 && s.[n - 1] = '\n' && s.[n - 2] = '\n')
        end
  in
  add piece;
  let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false in
  let i = ref 0 and j = ref (Buffer.length buf - 1) in
  while !i <= !j && is_space (Buffer.nth buf !i) do incr i done;
  while !j >= !i && is_space (Buffer.nth buf !j) do decr j done;
  Buffer.sub buf !i (!j - !i + 1)

let render_with memos options node =
  metric "render.count";
  Obs.Trace.with_span "render" @@ fun () ->
  let st =
    { opts = options; memos; cur = Buffer.create 256; blank = false; parts = []; inline_words = [] }
  in
  render_node st node;
  flush_inline st;
  close_leaf st;
  copy_out (Cat (List.rev st.parts))

let render ?(options = default_options) node = render_with None options node

let line_count ?options node =
  List.length (String.split_on_char '\n' (render ?options node))

(* ------------------------------------------------------------------ *)
(* Memoized rendering: the page text and each block's piece live in the
   tree's memo tables (one pair per option set), which every write
   keeps: a write drops the memos on its ancestor chain, so a re-render
   after it re-renders only that path, and one after no write at all
   is a lookup. *)

let render_cached ?(options = default_options) node =
  let key = Printf.sprintf "%d:%b" options.width options.show_hidden in
  let pages = Dom.memo_table node ("render-page:" ^ key) in
  match Hashtbl.find_opt pages (Dom.id node) with
  | Some (Page text) ->
      metric "render.memo.hit";
      text
  | _ ->
      metric "render.memo.miss";
      let text = render_with (Some (Dom.memo_table node ("render:" ^ key))) options node in
      Hashtbl.replace pages (Dom.id node) (Page text);
      text
