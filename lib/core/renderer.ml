type options = { width : int; show_hidden : bool }

let default_options = { width = 72; show_hidden = false }

(* ------------------------------------------------------------------ *)
(* Classification: what an element renders as, read from its local name
   in place with an ASCII case-insensitive compare (no lower-case copy,
   no list of names scanned with string equality). *)

type cls =
  | Inline  (** flows its content *)
  | Skip  (** not rendered *)
  | Break  (** br: ends the run of inline words *)
  | Block  (** its lines, with the inline runs before and after ended *)
  | Rule  (** hr *)
  | Heading of char  (** h1–h6, with the underline's character *)
  | Item  (** li *)
  | Row  (** tr *)
  | Pre
  | Input
  | Button
  | Img
  | Link  (** a *)

let vocabulary =
  [
    ("html", Block); ("head", Block); ("body", Block); ("div", Block); ("p", Block);
    ("ul", Block); ("ol", Block); ("li", Item); ("table", Block); ("tr", Row);
    ("form", Block); ("h1", Heading '='); ("h2", Heading '-'); ("h3", Heading '-');
    ("h4", Heading '-'); ("h5", Heading '-'); ("h6", Heading '-'); ("br", Break);
    ("hr", Rule); ("blockquote", Block); ("pre", Pre); ("section", Block);
    ("article", Block); ("header", Block); ("footer", Block); ("nav", Block);
    ("script", Skip); ("style", Skip); ("title", Skip); ("meta", Skip); ("link", Skip);
    ("input", Input); ("button", Button); ("img", Img); ("a", Link);
  ]

(* the vocabulary by name length *)
let by_length =
  let longest = List.fold_left (fun m (name, _) -> max m (String.length name)) 0 vocabulary in
  let t = Array.make (longest + 1) [] in
  List.iter
    (fun ((name, _) as e) ->
      let n = String.length name in
      t.(n) <- t.(n) @ [ e ])
    vocabulary;
  t

(* [s] from [i] equals the lower-case [lower] from [i], up to ASCII case *)
let rec equal_ci_from s lower i =
  i = String.length lower
  || Char.lowercase_ascii (String.unsafe_get s i) = String.unsafe_get lower i
     && equal_ci_from s lower (i + 1)

let equal_ci s lower = String.length s = String.length lower && equal_ci_from s lower 0

let rec find_cls local = function
  | [] -> Inline
  | (name, cls) :: rest -> if equal_ci local name then cls else find_cls local rest

let classify local =
  let n = String.length local in
  if n < Array.length by_length then find_cls local by_length.(n) else Inline

let is_cell local = equal_ci local "td" || equal_ci local "th"

let hidden node =
  match Dom.attributes node with
  | [] -> false
  | _ -> (
      match Xquery.Style_util.get_on_node node "display" with
      | Some "none" -> true
      | _ -> false)

(* the white space of [String.trim] *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* the first index in [i, n) of a byte that is not white space, or [n] *)
let rec first_nonspace s i n =
  if i < n && is_space (String.unsafe_get s i) then first_nonspace s (i + 1) n else i

(* the last index in [lo, i] of a byte that is not white space, or
   [lo - 1] *)
let rec last_nonspace s lo i =
  if i >= lo && is_space (String.unsafe_get s i) then last_nonspace s lo (i - 1) else i

(* ------------------------------------------------------------------ *)
(* Output is built as a rope. A block element's lines depend only on
   its subtree and the options: inline words are flushed before and
   after it. So each block's rendering is a piece, kept in the tree's
   memo table, and a re-render re-renders only the blocks whose memo a
   write dropped, then copies every piece out once. Runs of blank lines
   are squeezed as lines are emitted: within a leaf here, and across
   leaf boundaries when the rope is copied out.

   Every leaf ends in a newline. A [Cat] knows its byte length as
   copied out after a line that is not blank, so the copy-out sizes the
   page before it copies a byte. *)
type piece = Leaf of string | Cat of { len : int; parts : piece array }

type Dom.memo += Block of piece | Page of string

(* the output of a block that renders to nothing; never in a rope *)
let nothing = Cat { len = 0; parts = [||] }
let size = function Leaf s -> String.length s | Cat c -> c.len

(* the first line of a piece is blank *)
let rec starts_blank = function
  | Leaf s -> String.unsafe_get s 0 = '\n'
  | Cat c -> starts_blank c.parts.(0)

(* A leaf's last line is blank. This does not depend on whether its
   own first blank line was squeezed. *)
let leaf_ends_blank s =
  let n = String.length s in
  String.unsafe_get s (n - 1) = '\n' && (n = 1 || String.unsafe_get s (n - 2) = '\n')

let rec ends_blank = function
  | Leaf s -> leaf_ends_blank s
  | Cat c -> ends_blank c.parts.(Array.length c.parts - 1)

type state = {
  opts : options;
  memos : (int, Dom.memo) Hashtbl.t option;  (** block memos, when kept *)
  cur : Buffer.t;  (** the lines of the current leaf *)
  mutable blank : bool;  (** the last line of [cur] is blank *)
  mutable part : int;
      (** bytes of the line being written since its start or its last
          newline *)
  (* The pending inline words: word [i] is the [len.(i)] bytes of
     [src.(i)] from [off.(i)], a slice of a text node or a widget. *)
  mutable src : string array;
  mutable off : int array;
  mutable len : int array;
  mutable words : int;
  mutable broken : int;  (** pending words that hold a newline *)
  mutable stack : piece array;  (** the pieces of the open blocks *)
  mutable depth : int;
}

let add_word st s off len =
  let i = st.words in
  if i = Array.length st.src then begin
    let grow a fill =
      let b = Array.make (2 * i) fill in
      Array.blit a 0 b 0 i;
      b
    in
    st.src <- grow st.src "";
    st.off <- grow st.off 0;
    st.len <- grow st.len 0
  end;
  st.src.(i) <- s;
  st.off.(i) <- off;
  st.len.(i) <- len;
  st.words <- i + 1

let is_separator = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec word_end s j n =
  if j < n && not (is_separator (String.unsafe_get s j)) then word_end s (j + 1) n else j

(* the words of a text from [i] *)
let rec add_text st s i =
  if i < String.length s then
    if is_separator (String.unsafe_get s i) then add_text st s (i + 1)
    else begin
      let j = word_end s (i + 1) (String.length s) in
      add_word st s i (j - i);
      add_text st s j
    end

(* a widget: one word, [pre], [len] bytes of [s] from [off], [post] *)
let add_widget st pre s off len post =
  let np = String.length pre in
  let b = Bytes.create (np + len + String.length post) in
  Bytes.blit_string pre 0 b 0 np;
  Bytes.blit_string s off b np len;
  Bytes.blit_string post 0 b (np + len) (String.length post);
  let w = Bytes.unsafe_to_string b in
  if String.contains w '\n' then st.broken <- st.broken + 1;
  add_word st w 0 (Bytes.length b)

let push st p =
  if st.depth = Array.length st.stack then begin
    let b = Array.make (2 * st.depth) nothing in
    Array.blit st.stack 0 b 0 st.depth;
    st.stack <- b
  end;
  st.stack.(st.depth) <- p;
  st.depth <- st.depth + 1

(* The pieces pushed since [base], popped as one piece. *)
let pop_from st base =
  let k = st.depth - base in
  st.depth <- base;
  if k = 0 then nothing
  else if k = 1 then st.stack.(base)
  else begin
    let parts = Array.sub st.stack base k in
    let len = ref (size parts.(0)) in
    for i = 1 to k - 1 do
      len := !len + size parts.(i);
      (* the copy-out squeezes a blank line after a blank line *)
      if starts_blank parts.(i) && ends_blank parts.(i - 1) then decr len
    done;
    Cat { len = !len; parts }
  end

(* End the current part of a line: a part with bytes is a line of the
   output, an empty one a blank line, squeezed after a blank line. *)
let end_part st =
  if st.part > 0 then begin
    Buffer.add_char st.cur '\n';
    st.part <- 0;
    st.blank <- false
  end
  else if not st.blank then begin
    Buffer.add_char st.cur '\n';
    st.blank <- true
  end

(* bytes of the current line that hold no newline *)
let add_plain st s off len =
  Buffer.add_substring st.cur s off len;
  st.part <- st.part + len

let rec newline_in s i stop =
  if i < stop && String.unsafe_get s i <> '\n' then newline_in s (i + 1) stop else i

(* Bytes of the current line. A line may hold newlines of its own (a
   heading's or a cell's text, a widget's label): each part is a line
   of the output. *)
let rec add_lines st s off len =
  let stop = off + len in
  let nl = newline_in s off stop in
  add_plain st s off (nl - off);
  if nl < stop then begin
    end_part st;
    add_lines st s (nl + 1) (stop - nl - 1)
  end

let emit_line st line =
  add_lines st line 0 (String.length line);
  end_part st

(* Close the current leaf; the next one starts as if after a non-blank
   line, and the copy-out squeezes across the boundary. *)
let close_leaf st =
  if Buffer.length st.cur > 0 then begin
    push st (Leaf (Buffer.contents st.cur));
    Buffer.clear st.cur
  end;
  st.blank <- false

(* Wrap the pending words greedily to the width, [prefix] before the
   first line, straight into the current leaf. *)
let flush_inline st prefix =
  if st.words > 0 then begin
    let add = if st.broken = 0 then add_plain else add_lines in
    let width = st.opts.width - String.length prefix in
    add st prefix 0 (String.length prefix);
    let col = ref 0 in
    for i = 0 to st.words - 1 do
      let n = st.len.(i) in
      if !col = 0 then col := n
      else if !col + 1 + n <= width then begin
        add st " " 0 1;
        col := !col + 1 + n
      end
      else begin
        end_part st;
        col := n
      end;
      add st st.src.(i) st.off.(i) n
    done;
    end_part st;
    st.words <- 0;
    st.broken <- 0
  end

let elements_rendered = Obs.Metrics.counter "render.elements"
let block_hits = Obs.Metrics.counter "render.block.hit"
let block_misses = Obs.Metrics.counter "render.block.miss"
let renders = Obs.Metrics.counter "render.count"
let memo_hits = Obs.Metrics.counter "render.memo.hit"
let memo_misses = Obs.Metrics.counter "render.memo.miss"

let rec render_node st node =
  match Dom.kind node with
  | Dom.Text -> ( match Dom.value node with Some s -> add_text st s 0 | None -> ())
  | Dom.Comment | Dom.Processing_instruction | Dom.Attribute -> ()
  | Dom.Document -> render_children st (Dom.children node)
  | Dom.Element -> render_element st node

and render_children st = function
  | [] -> ()
  | n :: rest ->
      render_node st n;
      render_children st rest

and render_element st node =
  Obs.Metrics.incr elements_rendered;
  let cls = match Dom.name node with Some q -> classify q.Xmlb.Qname.local | None -> Inline in
  match cls with
  | Skip -> ()
  | _ when (not st.opts.show_hidden) && hidden node -> ()
  | Inline -> render_children st (Dom.children node)
  | Break -> flush_inline st ""
  | Input -> (
      let value = Option.value ~default:"" (Dom.attribute_local node "value") in
      match Option.value ~default:"text" (Dom.attribute_local node "type") with
      | "button" | "submit" ->
          let label = if value = "" then "button" else value in
          add_widget st "[ " label 0 (String.length label) " ]"
      | "checkbox" -> add_word st "[x]" 0 3
      | _ ->
          let n = String.length value in
          add_widget st "[" value 0 n (if n < 10 then String.make (10 - n) ' ' ^ "]" else "]"))
  | Button ->
      let label = Dom.string_value node in
      let i = first_nonspace label 0 (String.length label) in
      let j = last_nonspace label i (String.length label - 1) in
      add_widget st "[ " label i (j - i + 1) " ]"
  | Img ->
      let alt =
        match Dom.attribute_local node "alt" with
        | Some a when a <> "" -> a
        | _ -> Option.value ~default:"image" (Dom.attribute_local node "src")
      in
      add_widget st "[img: " alt 0 (String.length alt) "]"
  | Link -> (
      render_children st (Dom.children node);
      match Dom.attribute_local node "href" with
      | Some href -> add_widget st "<" href 0 (String.length href) ">"
      | None -> ())
  | (Block | Rule | Heading _ | Item | Row | Pre) as cls -> render_block st node cls

(* A block element: its memo when it has one, else its lines, which
   become its memo. *)
and render_block st node cls =
  flush_inline st "";
  close_leaf st;
  let memo =
    match st.memos with Some t -> Hashtbl.find_opt t (Dom.id node) | None -> None
  in
  match memo with
  | Some (Block p) ->
      Obs.Metrics.incr block_hits;
      if size p > 0 then push st p
  | _ ->
      Obs.Metrics.incr block_misses;
      let base = st.depth in
      block_lines st node cls;
      close_leaf st;
      let p = pop_from st base in
      (match st.memos with Some t -> Hashtbl.replace t (Dom.id node) (Block p) | None -> ());
      if size p > 0 then push st p

(* The lines of a block element; inline words are empty before and
   after. *)
and block_lines st node = function
  | Rule -> emit_line st (String.make st.opts.width '-')
  | Heading underline ->
      let text = String.trim (Dom.string_value node) in
      emit_line st "";
      emit_line st text;
      emit_line st (String.make (if text = "" then 1 else String.length text) underline)
  | Item ->
      render_children st (Dom.children node);
      flush_inline st "  * "
  | Row ->
      let cells =
        List.filter_map
          (fun c ->
            match Dom.name c with
            | Some q when is_cell q.Xmlb.Qname.local -> Some (String.trim (Dom.string_value c))
            | _ -> None)
          (Dom.children node)
      in
      if cells <> [] then emit_line st ("| " ^ String.concat " | " cells ^ " |")
  | Pre ->
      List.iter
        (fun l ->
          add_plain st "    " 0 4;
          add_plain st l 0 (String.length l);
          end_part st)
        (String.split_on_char '\n' (Dom.string_value node))
  | _ ->
      render_children st (Dom.children node);
      flush_inline st ""

(* ------------------------------------------------------------------ *)
(* Copy-out: the rope's text with a blank line that follows a blank
   line squeezed across leaf boundaries, trimmed as [String.trim]
   would. The trimmed size is known before a byte is copied: the
   root's length, less the white space found by walking in from each
   end, so the text is allocated once and each leaf blitted once. *)

type cursor = {
  mutable pos : int;
  mutable blank : bool;
  mutable scanning : bool;  (** no byte outside white space seen yet *)
}

(* the leading newline of a leaf that follows a blank line is squeezed *)
let squeezed c s = if c.blank && String.unsafe_get s 0 = '\n' then 1 else 0

(* [c.pos] becomes the length of the copied-out text's leading white
   space *)
let rec leading c = function
  | Leaf s ->
      let start = squeezed c s and n = String.length s in
      let i = first_nonspace s start n in
      c.pos <- c.pos + (i - start);
      c.blank <- leaf_ends_blank s;
      if i < n then c.scanning <- false
  | Cat { parts; _ } ->
      let i = ref 0 in
      while c.scanning && !i < Array.length parts do
        leading c parts.(!i);
        incr i
      done

(* Leaves from the last: [c.pos] becomes the length of the trailing
   white space; [c.blank] says that the leaf after this one is white
   space starting with a newline, which is squeezed if this one ends in
   a blank line. *)
let rec trailing c = function
  | Leaf s ->
      let n = String.length s in
      if c.blank && leaf_ends_blank s then c.pos <- c.pos - 1;
      let j = last_nonspace s 0 (n - 1) in
      if j >= 0 then begin
        c.pos <- c.pos + (n - 1 - j);
        c.scanning <- false
      end
      else begin
        c.pos <- c.pos + n;
        c.blank <- String.unsafe_get s 0 = '\n'
      end
  | Cat { parts; _ } ->
      let i = ref (Array.length parts - 1) in
      while c.scanning && !i >= 0 do
        trailing c parts.(!i);
        decr i
      done

(* Blit the bytes of the copied-out text in [lo, lo + length out) into
   [out]; [c.pos] is the text's length so far. *)
let rec blit out lo c = function
  | Leaf s ->
      let start = squeezed c s in
      let stop = c.pos + String.length s - start in
      let a = if c.pos > lo then c.pos else lo in
      let b = if stop < lo + Bytes.length out then stop else lo + Bytes.length out in
      if a < b then Bytes.blit_string s (start + a - c.pos) out (a - lo) (b - a);
      c.pos <- stop;
      c.blank <- leaf_ends_blank s
  | Cat { parts; _ } ->
      for i = 0 to Array.length parts - 1 do
        blit out lo c parts.(i)
      done

let copy_out piece =
  let n = size piece in
  let c = { pos = 0; blank = false; scanning = true } in
  leading c piece;
  let lo = c.pos in
  if lo = n then ""
  else begin
    let c = { pos = 0; blank = false; scanning = true } in
    trailing c piece;
    let out = Bytes.create (n - c.pos - lo) in
    blit out lo { pos = 0; blank = false; scanning = false } piece;
    Bytes.unsafe_to_string out
  end

let render_with memos options node =
  Obs.Metrics.incr renders;
  Obs.Trace.with_span "render" @@ fun () ->
  let st =
    {
      opts = options;
      memos;
      cur = Buffer.create 256;
      blank = false;
      part = 0;
      src = Array.make 64 "";
      off = Array.make 64 0;
      len = Array.make 64 0;
      words = 0;
      broken = 0;
      stack = Array.make 64 nothing;
      depth = 0;
    }
  in
  render_node st node;
  flush_inline st "";
  close_leaf st;
  copy_out (pop_from st 0)

let render ?(options = default_options) node = render_with None options node

(* ------------------------------------------------------------------ *)
(* Memoized rendering: the page text and each block's piece live in the
   tree's memo tables (one pair per option set), which every write
   keeps: a write drops the memos on its ancestor chain, so a re-render
   after it re-renders only that path, and one after no write at all
   is a lookup. *)

(* The names of an option set's two memo tables, made once per set. *)
let table_names = ref []

let names_of options =
  let rec find = function
    | (o, names) :: rest ->
        if o.width = options.width && o.show_hidden = options.show_hidden then names
        else find rest
    | [] ->
        let key = Printf.sprintf "%d:%b" options.width options.show_hidden in
        let names = ("render-page:" ^ key, "render:" ^ key) in
        table_names := (options, names) :: !table_names;
        names
  in
  find !table_names

let render_cached ?(options = default_options) node =
  let page_table, block_table = names_of options in
  let pages = Dom.memo_table node page_table in
  match Hashtbl.find_opt pages (Dom.id node) with
  | Some (Page text) ->
      Obs.Metrics.incr memo_hits;
      text
  | _ ->
      Obs.Metrics.incr memo_misses;
      let text = render_with (Some (Dom.memo_table node block_table)) options node in
      Hashtbl.replace pages (Dom.id node) (Page text);
      text
