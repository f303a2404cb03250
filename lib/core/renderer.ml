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
   memo table, and a re-render renders again only what the writes since
   the last one touched (see "Block memos" below). The page's rope is a
   frame, copied out once when its text is asked for. Runs of blank
   lines are squeezed as lines are emitted: within a leaf here, and
   across leaf boundaries when the rope is copied out.

   A leaf is a string, or a slice of one: [len] bytes from [off]; it
   ends in a newline. A [Cat] knows its byte length as copied out after
   a line that is not blank, so the copy-out sizes the page before it
   copies a byte. *)
type piece =
  | Leaf of string
  | Slice of { s : string; off : int; len : int }
  | Cat of { len : int; parts : piece array }

(* the output of what renders to nothing; never in a rope *)
let nothing = Cat { len = 0; parts = [||] }
let size = function Leaf s -> String.length s | Slice l -> l.len | Cat c -> c.len

(* the first line of a piece is blank *)
let rec starts_blank = function
  | Leaf s -> String.unsafe_get s 0 = '\n'
  | Slice l -> String.unsafe_get l.s l.off = '\n'
  | Cat c -> starts_blank c.parts.(0)

(* A leaf's last line is blank. This does not depend on whether its
   own first blank line was squeezed. *)
let leaf_ends_blank s off len =
  let e = off + len in
  String.unsafe_get s (e - 1) = '\n' && (len = 1 || String.unsafe_get s (e - 2) = '\n')

let rec ends_blank = function
  | Leaf s -> leaf_ends_blank s 0 (String.length s)
  | Slice l -> leaf_ends_blank l.s l.off l.len
  | Cat c -> ends_blank c.parts.(Array.length c.parts - 1)

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
  mutable leaves : int;  (** leaves blitted *)
}

(* the leading newline of a leaf that follows a blank line is squeezed *)
let squeezed c s off = if c.blank && String.unsafe_get s off = '\n' then 1 else 0

(* [c.pos] becomes the length of the copied-out text's leading white
   space *)
let leading_bytes c s off len =
  let start = off + squeezed c s off and stop = off + len in
  let i = first_nonspace s start stop in
  c.pos <- c.pos + (i - start);
  c.blank <- leaf_ends_blank s off len;
  if i < stop then c.scanning <- false

let rec leading c = function
  | Leaf s -> leading_bytes c s 0 (String.length s)
  | Slice { s; off; len } -> leading_bytes c s off len
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
let trailing_bytes c s off len =
  if c.blank && leaf_ends_blank s off len then c.pos <- c.pos - 1;
  let j = last_nonspace s off (off + len - 1) in
  if j >= off then begin
    c.pos <- c.pos + (off + len - 1 - j);
    c.scanning <- false
  end
  else begin
    c.pos <- c.pos + len;
    c.blank <- String.unsafe_get s off = '\n'
  end

let rec trailing c = function
  | Leaf s -> trailing_bytes c s 0 (String.length s)
  | Slice { s; off; len } -> trailing_bytes c s off len
  | Cat { parts; _ } ->
      let i = ref (Array.length parts - 1) in
      while c.scanning && !i >= 0 do
        trailing c parts.(!i);
        decr i
      done

(* Blit the bytes of the copied-out text in [lo, lo + length out) into
   [out]; [c.pos] is the text's length so far. *)
let blit_bytes out lo c s off len =
  c.leaves <- c.leaves + 1;
  let start = squeezed c s off in
  let stop = c.pos + len - start in
  let a = if c.pos > lo then c.pos else lo in
  let b = if stop < lo + Bytes.length out then stop else lo + Bytes.length out in
  if a < b then Bytes.blit_string s (off + start + a - c.pos) out (a - lo) (b - a);
  c.pos <- stop;
  c.blank <- leaf_ends_blank s off len

let rec blit out lo c = function
  | Leaf s -> blit_bytes out lo c s 0 (String.length s)
  | Slice { s; off; len } -> blit_bytes out lo c s off len
  | Cat { parts; _ } ->
      for i = 0 to Array.length parts - 1 do
        blit out lo c parts.(i)
      done

let after_text () = { pos = 0; blank = false; scanning = false; leaves = 0 }

(* A piece as one leaf holding its text as copied out after a line
   that is not blank. *)
let one_leaf = function
  | Cat { len; _ } as p ->
      let out = Bytes.create len in
      blit out 0 (after_text ()) p;
      Leaf (Bytes.unsafe_to_string out)
  | p -> p

let copied_leaves = Obs.Metrics.counter "render.copy.leaves"

let copy_out piece =
  let n = size piece in
  let c = { pos = 0; blank = false; scanning = true; leaves = 0 } in
  leading c piece;
  let lo = c.pos in
  if lo = n then ""
  else begin
    let c = { pos = 0; blank = false; scanning = true; leaves = 0 } in
    trailing c piece;
    let out = Bytes.create (n - c.pos - lo) in
    let c = after_text () in
    blit out lo c piece;
    Obs.Metrics.add copied_leaves c.leaves;
    Bytes.unsafe_to_string out
  end

(* A rendering: its rope, and its text once copied out. The pieces of a
   rope are never changed, since memos replace a piece rather than
   write into it, so a frame keeps its text however the page is written
   after it. *)
type frame = { rope : piece; mutable copied : string option }

let text f =
  match f.copied with
  | Some s -> s
  | None ->
      let s = copy_out f.rope in
      f.copied <- Some s;
      s

(* ------------------------------------------------------------------ *)
(* Block memos. A Block or Item element's children are rendered in
   chunks: runs of consecutive children, cut only where no inline words
   are pending and the current leaf is closed, so a chunk's output
   depends on its children alone and can stand anywhere among its
   neighbours. A chunk keeps the child list from its first child and
   from the child after its last, as they were when it was rendered:
   lists are immutable, so when the block's child list still holds the
   very same cells there, nothing in between changed, and a chunk
   whose children no write came through is reused whole. Blocks with
   one chunk keep none and render their children again when written.

   A reused piece is copied out as one leaf: a block's piece becomes a
   leaf of its text the first time it is reused, and a run of reused
   chunks becomes slices of one string, so a run of slices of one
   string that meet is one leaf again. *)

let chunk_target = 32 (* children a chunk takes at least, where it can *)
let chunk_max = 64 (* a patched stretch of more children is cut again *)
let chunk_min = 16 (* a patched stretch of fewer takes in its neighbour *)

type chunk = {
  mutable cells : Dom.node list;  (** the block's children from the first of the chunk *)
  mutable rest : Dom.node list;  (** the block's children after the chunk *)
  count : int;
  clean : bool;
      (** no inline words were pending after its last child, so its
          output does not depend on being last *)
  mutable out : piece;
}

type Dom.memo +=
  | Lines of piece  (** a block's output, its children one chunk *)
  | Chunked of {
      cls : cls;  (** whose last chunk flushes its words as [cls] does *)
      mutable piece : piece;
      mutable chunks : chunk array;  (** two or more, in order *)
    }
  | Hidden
  | Page of frame

let no_chunk = { cells = []; rest = []; count = 0; clean = true; out = nothing }

(* [f p] for the output [p] of each chunk of [i, j) that renders
   something, where chunks whose outputs are slices of one string that
   meet give one slice. *)
let each_piece chunks i j f =
  let x = ref i in
  while !x < j do
    (match chunks.(!x).out with
    | Slice { s; off; len } ->
        (* the chunks whose slices continue this one *)
        let stop = ref (off + len) and y = ref (!x + 1) in
        let continues () =
          !y < j
          &&
          match chunks.(!y).out with
          | Slice l -> l.s == s && l.off = !stop
          | p -> size p = 0
        in
        while continues () do
          stop := !stop + size chunks.(!y).out;
          incr y
        done;
        f (if !y = !x + 1 then chunks.(!x).out else Slice { s; off; len = !stop - off });
        x := !y
    | p ->
        if size p > 0 then f p;
        incr x)
  done

(* Chunks [i, j) as slices of one new string, their text as copied out
   after a line that is not blank; a chunk whose first blank line that
   string squeezed becomes a leaf of its own instead. The string as
   one leaf. *)
let flatten_chunks chunks i j =
  (* [f x start squeezed p] for each chunk [x] that renders something,
     at [start] in the string; its length *)
  let each f =
    let pos = ref 0 and blank = ref false in
    for x = i to j - 1 do
      let p = chunks.(x).out in
      if size p > 0 then begin
        let squeezed = !blank && starts_blank p in
        f x !pos squeezed p;
        pos := !pos + size p - Bool.to_int squeezed;
        blank := ends_blank p
      end
    done;
    !pos
  in
  let out = Bytes.create (each (fun _ _ _ _ -> ())) in
  each_piece chunks i j (blit out 0 (after_text ()));
  let s = Bytes.unsafe_to_string out in
  let slice x start squeezed p =
    chunks.(x).out <- (if squeezed then one_leaf p else Slice { s; off = start; len = size p })
  in
  ignore (each slice);
  Leaf s

type state = {
  opts : options;
  memos : (int, Dom.memo_entry) Hashtbl.t option;  (** block memos, when kept *)
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
  (* The places where the chunks being rendered may be cut: after
     [cut_count.(i)] of their children, at stack depth [cut_depth.(i)],
     before the children [cut_cells.(i)]. *)
  mutable cut_count : int array;
  mutable cut_depth : int array;
  mutable cut_cells : Dom.node list array;
  mutable cuts : int;
  mutable left : Dom.node list;  (** where the last stretch stopped *)
  mutable next : int;  (** the old chunk it stopped at *)
}

(* [a] in an array twice its length, the rest [fill] *)
let grow a fill =
  let n = Array.length a in
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let add_word st s off len =
  let i = st.words in
  if i = Array.length st.src then begin
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
  if st.depth = Array.length st.stack then st.stack <- grow st.stack nothing;
  st.stack.(st.depth) <- p;
  st.depth <- st.depth + 1

(* The pieces at [lo, hi) of the stack as one piece. *)
let cat st lo hi =
  let k = hi - lo in
  if k = 0 then nothing
  else if k = 1 then st.stack.(lo)
  else begin
    let parts = Array.sub st.stack lo k in
    let len = ref (size parts.(0)) in
    for i = 1 to k - 1 do
      len := !len + size parts.(i);
      (* the copy-out squeezes a blank line after a blank line *)
      if starts_blank parts.(i) && ends_blank parts.(i - 1) then decr len
    done;
    Cat { len = !len; parts }
  end

(* The pieces pushed since [base], popped as one piece. *)
let pop_from st base =
  let p = cat st base st.depth in
  st.depth <- base;
  p

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

(* no inline words are pending and the current leaf is closed *)
let settled st = st.words = 0 && Buffer.length st.cur = 0

let add_cut st count cells =
  let i = st.cuts in
  if i = Array.length st.cut_count then begin
    st.cut_count <- grow st.cut_count 0;
    st.cut_depth <- grow st.cut_depth 0;
    st.cut_cells <- grow st.cut_cells []
  end;
  st.cut_count.(i) <- count;
  st.cut_depth.(i) <- st.depth;
  st.cut_cells.(i) <- cells;
  st.cuts <- i + 1

(* Push reused chunks [i, j): slices of one string that meet are one
   leaf. A run holding a chunk that is not yet a leaf becomes slices of
   one string first. *)
let push_run st chunks i j =
  let rec has_cat x =
    x < j && ((match chunks.(x).out with Cat { len; _ } -> len > 0 | _ -> false) || has_cat (x + 1))
  in
  if has_cat i then ignore (flatten_chunks chunks i j);
  each_piece chunks i j (push st)

(* Old chunks [[j, k)] replaced by [ns], in order. *)
let apply_edits old edits =
  let m = Array.length old in
  let result =
    if m > 0 && List.for_all (fun (j, k, ns) -> List.compare_length_with ns (k - j) = 0) edits
    then begin
      List.iter (fun (j, _, ns) -> List.iteri (fun i c -> old.(j + i) <- c) ns) edits;
      old
    end
    else begin
      let n = List.fold_left (fun n (j, k, ns) -> n + List.length ns - (k - j)) m edits in
      let a = Array.make n no_chunk in
      let at = ref 0 and from = ref 0 in
      let copy j =
        Array.blit old !from a !at (j - !from);
        at := !at + (j - !from)
      in
      List.iter
        (fun (j, k, ns) ->
          copy j;
          List.iter
            (fun c ->
              a.(!at) <- c;
              incr at)
            ns;
          from := k)
        edits;
      copy m;
      a
    end
  in
  if Array.length result = 1 then [||] else result

(* Which of [chunks] hold a child of [node] in [through]; [[||]] for
   none. A child that has left is not looked for: the chunk that held
   it no longer lines up. *)
let touched_chunks node chunks through =
  let through =
    List.filter (fun c -> match Dom.parent c with Some p -> p == node | None -> false) through
  in
  if through = [] then [||]
  else begin
    let t = Array.make (Array.length chunks) false and left = ref (List.length through) in
    Array.iteri
      (fun k c ->
        let rec scan cells n =
          match cells with
          | x :: rest when n > 0 && !left > 0 ->
              if List.memq x through then begin
                t.(k) <- true;
                decr left
              end;
              scan rest (n - 1)
          | _ -> ()
        in
        scan c.cells c.count)
      chunks;
    t
  end

(* [value] as node [id]'s memo in [t], where [found] is its entry if it
   has one, with no writes marked *)
let set_memo t id found value =
  match found with
  | Some (e : Dom.memo_entry) ->
      e.value <- value;
      e.through <- [];
      e.changed <- false
  | None -> Hashtbl.add t id { Dom.value; through = []; changed = false }

(* A block's piece, with the inline words before it flushed. *)
let push_block st p =
  flush_inline st "";
  close_leaf st;
  if size p > 0 then push st p

(* Old chunk [k]'s first child is no longer one of [node]'s. *)
let gone node old k =
  match Dom.parent (List.hd old.(k).cells) with Some p -> p != node | None -> true

(* Past the old chunks from [k] that child [n] starts, or whose first
   child left. *)
let rec consume node old n k =
  if k < Array.length old && (List.hd old.(k).cells == n || gone node old k) then
    consume node old n (k + 1)
  else k

(* Old chunk [k] can be reused at [cur]: the same children start there,
   no write came through them, and pending words at its end were
   flushed only if it is last. Its cells are then [cur]'s, and its rest
   the children after it. *)
let reusable old touched cur k =
  k < Array.length old
  && (Array.length touched = 0 || not touched.(k))
  &&
  let c = old.(k) in
  let rec same a b n =
    n = 0 || match (a, b) with x :: a, y :: b -> x == y && same a b (n - 1) | _ -> false
  in
  let rec drop a n = if n = 0 then a else drop (List.tl a) (n - 1) in
  (cur == c.cells || same cur c.cells c.count)
  &&
  let rest = if cur == c.cells then c.rest else drop cur c.count in
  (c.clean || rest = [])
  && begin
       c.cells <- cur;
       c.rest <- rest;
       true
     end

(* The stretch of children rendered again since stack depth [base] and
   cut place [cut_base], from [first] up to [rest], [count] of them:
   cut at its places to cut when it holds more than [chunk_max] (but
   not so close to its end that fewer than [chunk_min] would follow),
   each chunk's pieces one piece on the stack. *)
let cut_stretch st base cut_base first rest count clean =
  let news = ref [] and lo = ref base and at = ref base and from = ref first and taken = ref 0 in
  let close hi cells n clean =
    let out = cat st !lo hi in
    if size out > 0 then begin
      st.stack.(!at) <- out;
      incr at
    end;
    news := { cells = !from; rest = cells; count = n - !taken; clean; out } :: !news;
    lo := hi;
    from := cells;
    taken := n
  in
  if count > chunk_max then
    for i = cut_base to st.cuts - 1 do
      let c = st.cut_count.(i) in
      if count - c >= chunk_min then close st.cut_depth.(i) st.cut_cells.(i) c true
    done;
  close st.depth rest count clean;
  st.depth <- !at;
  st.cuts <- cut_base;
  List.rev !news

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
  | Block | Rule | Heading _ | Item | Row | Pre -> render_block st node cls
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

(* A block element. Its memo is looked up before any attribute is read:
   one with no writes marked is reused as it is; otherwise the element
   is hidden, or its lines are rendered again, patching the memo's
   chunks when it has some. Whether it is hidden is read again only
   when the element itself was written. *)
and render_block st node cls =
  match st.memos with
  | None ->
      if st.opts.show_hidden || not (hidden node) then begin
        flush_inline st "";
        close_leaf st;
        ignore (block_lines st node cls [||] [])
      end
  | Some t -> (
      let found = Hashtbl.find_opt t (Dom.id node) in
      match found with
      | Some ({ value; through = []; changed = false } as e) -> (
          Obs.Metrics.incr block_hits;
          match value with
          | Lines (Cat _ as p) ->
              let p = one_leaf p in
              e.value <- Lines p;
              push_block st p
          | Lines p -> push_block st p
          | Chunked b ->
              (match b.piece with
              | Cat _ -> b.piece <- flatten_chunks b.chunks 0 (Array.length b.chunks)
              | _ -> ());
              push_block st b.piece
          | _ -> ())
      | _ ->
          Obs.Metrics.incr block_misses;
          let shown =
            match found with
            | Some { value = Hidden; changed = false; _ } -> false
            | Some { value = Lines _ | Chunked _; changed = false; _ } -> true
            | _ -> st.opts.show_hidden || not (hidden node)
          in
          let value =
            if not shown then Hidden
            else begin
              flush_inline st "";
              close_leaf st;
              let base = st.depth in
              let old, through =
                match found with
                | Some { value = Chunked b; through; _ } when b.cls = cls -> (b.chunks, through)
                | _ -> ([||], [])
              in
              let chunks = block_lines st node cls old through in
              let piece = pop_from st base in
              if size piece > 0 then push st piece;
              if Array.length chunks = 0 then Lines piece else Chunked { cls; piece; chunks }
            end
          in
          set_memo t (Dom.id node) found value)

(* The lines of a block element, with its leaf closed after them;
   inline words are empty before and after. The chunks of its children
   for a Block or Item, else [[||]]. *)
and block_lines st node cls old through =
  let chunks =
    match cls with
    | Rule ->
        emit_line st (String.make st.opts.width '-');
        [||]
    | Heading underline ->
        let text = String.trim (Dom.string_value node) in
        emit_line st "";
        emit_line st text;
        emit_line st (String.make (if text = "" then 1 else String.length text) underline);
        [||]
    | Item -> children_lines st node "  * " old through
    | Row ->
        let cells =
          List.filter_map
            (fun c ->
              match Dom.name c with
              | Some q when is_cell q.Xmlb.Qname.local -> Some (String.trim (Dom.string_value c))
              | _ -> None)
            (Dom.children node)
        in
        if cells <> [] then emit_line st ("| " ^ String.concat " | " cells ^ " |");
        [||]
    | Pre ->
        List.iter
          (fun l ->
            add_plain st "    " 0 4;
            add_plain st l 0 (String.length l);
            end_part st)
          (String.split_on_char '\n' (Dom.string_value node));
        [||]
    | _ -> children_lines st node "" old through
  in
  close_leaf st;
  chunks

(* The children of a Block or Item element, then its pending words
   after [prefix]. With memos kept, they are rendered in chunks, those
   of [old] reused where the children line up with them and no write
   came [through] them; the rest is rendered again, from the last place
   reused up to the next, as new chunks. *)
and children_lines st node prefix old through =
  match st.memos with
  | None ->
      render_children st (Dom.children node);
      flush_inline st prefix;
      [||]
  | Some _ when Array.length old = 0 ->
      let base = st.depth and cut_base = st.cuts and children = Dom.children node in
      let count = stretch st node old [||] children 0 0 0 in
      let clean = settled st in
      flush_inline st prefix;
      close_leaf st;
      if count > chunk_max then
        match cut_stretch st base cut_base children [] count clean with
        | [ _ ] -> [||]
        | chunks -> Array.of_list chunks
      else begin
        st.cuts <- cut_base;
        [||]
      end
  | Some _ ->
      let edits = ref [] in
      walk st node prefix old (touched_chunks node old through) edits (Dom.children node) 0;
      apply_edits old (List.rev !edits)

(* Reuse old chunks from [k] while they line up at [cur], else render
   a stretch again; [edits] gathers the old chunks replaced. *)
and walk st node prefix old touched edits cur k =
  let m = Array.length old in
  let k' = ref k in
  while !k' < m && gone node old !k' do
    incr k'
  done;
  if !k' > k then edits := (k, !k', []) :: !edits;
  let k = !k' in
  match cur with
  | [] -> if k < m then edits := (k, m, []) :: !edits
  | _ ->
      if reusable old touched cur k then begin
        let rec extend j = if reusable old touched old.(j - 1).rest j then extend (j + 1) else j in
        let j = extend (k + 1) in
        push_run st old k j;
        walk st node prefix old touched edits old.(j - 1).rest j
      end
      else begin
        let base = st.depth and cut_base = st.cuts in
        let count = stretch st node old touched cur k 0 0 in
        let rest = st.left and k' = st.next in
        let clean = settled st in
        if rest = [] then begin
          flush_inline st prefix;
          close_leaf st
        end;
        edits := (k, k', cut_stretch st base cut_base cur rest count clean) :: !edits;
        walk st node prefix old touched edits rest k'
      end

(* Render the children from [cur] again, up to a place where no words
   are pending, at least [chunk_min] of them are rendered and an old
   chunk can be reused, or to the end. How many were rendered; the
   children left and the next old chunk go to [st.left] and [st.next].
   A chunk of [chunk_target] or more children after the last place to
   cut, [cut], ends at the next place where no words are pending: that
   place goes to [st]'s places to cut. *)
and stretch st node old touched cur k count cut =
  match cur with
  | [] ->
      st.left <- [];
      st.next <- k;
      count
  | n :: rest ->
      render_node st n;
      let count = count + 1 in
      let k = consume node old n k in
      if rest <> [] && settled st then
        if count >= chunk_min && reusable old touched rest k then begin
          st.left <- rest;
          st.next <- k;
          count
        end
        else if count - cut >= chunk_target then begin
          add_cut st count rest;
          stretch st node old touched rest k count count
        end
        else stretch st node old touched rest k count cut
      else stretch st node old touched rest k count cut

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
      cut_count = Array.make 16 0;
      cut_depth = Array.make 16 0;
      cut_cells = Array.make 16 [];
      cuts = 0;
      left = [];
      next = 0;
    }
  in
  render_node st node;
  flush_inline st "";
  close_leaf st;
  { rope = pop_from st 0; copied = None }

let render ?(options = default_options) node = text (render_with None options node)

(* ------------------------------------------------------------------ *)
(* Memoized rendering: the page's frame and each block's memo live in
   the tree's memo tables, one pair per option set, named from the
   options on each call, so they are freed with the document. A write
   marks the memos on its chain (see {!Dom.memo_table}): a re-render
   after it patches only what the write touched, and one after no write
   at all is a lookup. *)

let render_cached ?(options = default_options) node =
  let set = string_of_int options.width ^ if options.show_hidden then ":all" else "" in
  let pages = Dom.memo_table node ("render-page:" ^ set) in
  match Hashtbl.find_opt pages (Dom.id node) with
  | Some { value = Page frame; through = []; changed = false } ->
      Obs.Metrics.incr memo_hits;
      frame
  | found ->
      Obs.Metrics.incr memo_misses;
      let frame = render_with (Some (Dom.memo_table node ("render:" ^ set))) options node in
      set_memo pages (Dom.id node) found (Page frame);
      frame
