(* The text renderer: block/inline flow, widgets, tables, wrapping,
   hidden elements, and its interplay with XQuery updates (render after
   update shows the change — the end of the Fig. 1 loop). *)

module R = Xqib.Renderer
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let render ?options s = R.render ?options (Dom.of_string s)

(* the text of a memoized render *)
let cached ?options doc = R.text (R.render_cached ?options doc)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  m = 0 || scan 0

(* ---------- the whole tag vocabulary against the oracle ---------- *)

module Q = QCheck

type tree = El of string * (string * string) list * tree list | Tx of string | Cm

(* every tag the renderer knows, some in mixed case, and inline ones *)
let tags =
  [|
    "p"; "Div"; "li"; "LI"; "ul"; "OL"; "h1"; "H2"; "h6"; "span"; "b"; "input"; "Input";
    "button"; "BUTTON"; "img"; "IMG"; "a"; "A"; "table"; "tr"; "Tr"; "td"; "TD"; "th"; "Th";
    "pre"; "Pre"; "hr"; "Hr"; "br"; "BR"; "script"; "SCRIPT"; "style"; "Style"; "title";
    "meta"; "link"; "section"; "blockquote"; "form"; "Nav";
  |]

(* tabs, CRs and form feeds (a word byte, not a separator), blank
   runs, and a word longer than most widths *)
let texts =
  [|
    "hello"; "two words"; "  spaced \t out  "; "a\tb\rc\r\nd"; "\012"; "form\012feed";
    "supercalifragilistic-expialidocious-and-then-some"; "line\n\n\nbreak"; " "; "x";
    "\n\n";
  |]

let attribute_pool =
  [|
    ("style", "display: none"); ("style", "display:block"); ("style", "COLOR: red; Display: none");
    ("type", "text"); ("type", "button"); ("type", "submit"); ("type", "checkbox");
    ("type", "radio"); ("value", ""); ("value", "abc"); ("value", "a value longer than ten");
    ("value", "x\ny"); ("alt", ""); ("alt", "a heart"); ("alt", "two\n\n\nlines");
    ("src", "pic.gif"); ("href", "http://x/"); ("href", "a b"); ("id", "k");
  |]

let attributes_gen =
  Q.Gen.map
    (List.fold_left (fun acc (n, v) -> if List.mem_assoc n acc then acc else (n, v) :: acc) [])
    (Q.Gen.list_size (Q.Gen.int_bound 3) (Q.Gen.oneofa attribute_pool))

let rec tree_gen depth =
  Q.Gen.(
    if depth = 0 then map (fun s -> Tx s) (oneofa texts)
    else
      frequency
        [
          (3, map (fun s -> Tx s) (oneofa texts));
          (1, return Cm);
          ( 6,
            map3
              (fun tag attrs kids -> El (tag, attrs, kids))
              (oneofa tags) attributes_gen
              (list_size (int_bound 4) (tree_gen (depth - 1))) );
        ])

let rec build = function
  | Tx s -> Dom.create_text s
  | Cm -> Dom.create_comment "c"
  | El (tag, attrs, kids) ->
      let el =
        Dom.create_element
          ~attrs:(List.map (fun (n, v) -> (Xmlb.Qname.make n, v)) attrs)
          (Xmlb.Qname.make tag)
      in
      List.iter (fun k -> Dom.append_child ~parent:el (build k)) kids;
      el

let rec show = function
  | Tx s -> Printf.sprintf "%S" s
  | Cm -> "<!--c-->"
  | El (tag, attrs, kids) ->
      Printf.sprintf "<%s%s>%s</%s>" tag
        (String.concat "" (List.map (fun (n, v) -> Printf.sprintf " %s=%S" n v) attrs))
        (String.concat "" (List.map show kids))
        tag

let style_qn = Xmlb.Qname.make "style"

(* block elements written in among block siblings *)
let block_tags = [| "li"; "p"; "div"; "h2"; "tr"; "pre"; "hr"; "LI" |]

(* A node taken out of the tree (or moved to the end of [elsewhere])
   gets a new text while it is away: the value of its first text node,
   or a new last child. *)
let write_away n text elsewhere =
  (match elsewhere with Some q -> Dom.append_child ~parent:q n | None -> Dom.remove n);
  match List.filter (fun x -> Dom.kind x = Dom.Text) (n :: Dom.descendants n) with
  | x :: _ -> Dom.set_value x text
  | [] -> if Dom.kind n = Dom.Element then Dom.append_child ~parent:n (Dom.create_text text)

(* One write to the document: a new element, a removal, a text's
   value, a style, a rename, a new block inserted first into an
   element or just before a node that has a parent element, or a child
   of the element with the most children written while it is away,
   then put back where it was or before another node. *)
let apply_write doc (op, p, aux) =
  let nodes = Dom.descendants doc in
  let nth l = List.nth l (p mod List.length l) in
  let els = List.filter (fun n -> Dom.kind n = Dom.Element) nodes in
  let text = texts.(aux mod Array.length texts) and tag = tags.(aux mod Array.length tags) in
  let block () = build (El (block_tags.(aux mod Array.length block_tags), [], [ Tx text ])) in
  let below_element n =
    match Dom.parent n with Some q -> Dom.kind q = Dom.Element | None -> false
  in
  match op with
  | 7 -> (
      let widest =
        List.fold_left
          (fun w e -> if List.length (Dom.children e) > List.length (Dom.children w) then e else w)
          doc els
      in
      match Dom.children widest with
      | [] -> ()
      | kids ->
          let n = nth kids in
          let outside e = e != n && not (Dom.is_ancestor ~ancestor:n e) in
          let next = match Dom.following_siblings n with s :: _ -> Some s | [] -> None in
          (* away: out of the tree, or under another element *)
          let elsewhere =
            if aux mod 2 = 0 then None else List.find_opt (fun e -> e != widest && outside e) els
          in
          write_away n text elsewhere;
          (* back: where it was, or before another node *)
          let before =
            if aux / 2 mod 2 = 0 then next
            else
              match List.filter (fun x -> below_element x && outside x) (Dom.descendants doc) with
              | [] -> None
              | l -> Some (List.nth l (aux mod List.length l))
          in
          match before with
          | Some s -> Dom.insert_before ~sibling:s n
          | None -> Dom.append_child ~parent:widest n)
  | 0 -> if els <> [] then Dom.append_child ~parent:(nth els) (build (El (tag, [], [ Tx text ])))
  | 1 -> (
      let below_root n = match Dom.parent n with Some q -> q != doc | None -> false in
      match List.filter below_root nodes with [] -> () | l -> Dom.remove (nth l))
  | 2 -> (
      match List.filter (fun n -> Dom.kind n = Dom.Text) nodes with
      | [] -> ()
      | l -> Dom.set_value (nth l) text)
  | 3 ->
      if els <> [] then
        if aux mod 2 = 0 then Dom.set_attribute (nth els) style_qn "display: none"
        else Dom.remove_attribute (nth els) style_qn
  | 4 -> if els <> [] then Dom.rename (nth els) (Xmlb.Qname.make tag)
  | 5 -> if els <> [] then Dom.insert_first ~parent:(nth els) (block ())
  | _ -> (
      match List.filter below_element nodes with
      | [] -> ()
      | l -> Dom.insert_before ~sibling:(nth l) (block ()))

(* A list long enough to be rendered in several chunks: items of a few
   shapes, with white space or a word between some of them; at width 0
   a rule is a blank line, so chunks can meet at blank lines. *)
let wide_gen =
  Q.Gen.(
    map
      (fun items -> El ("ul", [], List.concat items))
      (list_size (int_range 40 200)
         (map2
            (fun shape text ->
              match shape with
              | 0 -> [ El ("li", [], [ Tx text ]) ]
              | 1 -> [ El ("li", [], [ Tx text ]); Tx "\n" ]
              | 2 -> [ El ("p", [], [ Tx text ]); Tx text ]
              | 3 -> [ El ("li", [ ("style", "display: none") ], [ Tx text ]) ]
              | 4 -> [ El ("hr", [], []); El ("h2", [], [ Tx text ]) ]
              | _ -> [ Tx text; El ("b", [], [ Tx text ]) ])
            (int_bound 5) (oneofa texts))))

(* The tree, the options, and runs of writes with a render after each
   run; a run whose first write has [aux] divisible by 3 is rendered
   twice, and the second render must return the first's frame. *)
let vocabulary_arbitrary =
  Q.make
    ~print:(fun (tree, width, show_hidden, runs) ->
      Printf.sprintf "%s width=%d show_hidden=%b, then runs of %s writes" (show tree) width
        show_hidden
        (String.concat ", " (List.map (fun r -> string_of_int (List.length r)) runs)))
    Q.Gen.(
      tup4
        (map2
           (fun kids wide -> El ("body", [], kids @ Option.to_list wide))
           (list_size (int_range 1 4) (tree_gen 4))
           (opt ~ratio:0.4 wide_gen))
        (int_range 0 100) bool
        (list_size (int_bound 5)
           (list_size (int_range 1 4) (triple (int_bound 7) (int_bound 1000) (int_bound 1000)))))

(* Each render's frame is read only after the next run of writes, so
   it must still hold the text of the document it was taken from. *)
let prop_vocabulary (tree, width, show_hidden, runs) =
  let options = { R.width; show_hidden } in
  let doc = Dom.create_document () in
  Dom.append_child ~parent:doc (build tree);
  (* the oracle's text, if [render] agrees, and a frame taken now *)
  let take () =
    let want = Render_oracle.render options doc in
    if String.equal (R.render ~options doc) want then Some (want, R.render_cached ~options doc)
    else None
  in
  let rec go taken runs =
    match (taken, runs) with
    | None, _ -> false
    | Some (want, frame), [] -> String.equal (R.text frame) want
    | Some (want, frame), run :: runs ->
        List.iter (apply_write doc) run;
        String.equal (R.text frame) want
        &&
        let taken = take () in
        (match (run, taken) with
        | (_, _, aux) :: _, Some (_, frame) when aux mod 3 = 0 ->
            R.render_cached ~options doc == frame
        | _ -> true)
        && go taken runs
  in
  go (take ()) runs

(* ---------- allocation ---------- *)

(* Minor words a first [render_cached] of an [items]-item page of the
   end-to-end benchmark's page-load shape allocates per element. *)
let words_per_element items =
  let page = Gen.gen_page (Random.State.make [| 5 |]) ~index:1 ~items ~pooled:true in
  let doc = Dom.of_string page.Gen.html in
  let elements =
    List.length (List.filter (fun n -> Dom.kind n = Dom.Element) (Dom.descendants doc))
  in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (R.render_cached doc));
  let words = Gc.minor_words () -. before in
  words /. float_of_int elements

(* A page of the click workload's shape: a search form, a cart of
   [cart] items, twelve dashboard panels and a 1 500-item catalogue. *)
let click_page ~cart =
  let st = Random.State.make [| 7 |] in
  let buf = Buffer.create 200_000 in
  Buffer.add_string buf
    "<html><head><title>Shop</title></head><body>\n\
     <form>Search: <input type=\"text\" id=\"q\" value=\"\"/></form>\n\
     <p>Suggestions: <span id=\"txtHint\"/></p>\n<h2>Cart</h2>\n<ul id=\"cart\">";
  for i = 1 to cart do
    Printf.bprintf buf "<li ref=\"p%d\">%d</li>" i (1 + (i mod 97))
  done;
  Buffer.add_string buf "</ul>\n<h2>Dashboard</h2>\n";
  for p = 0 to Gen.categories - 1 do
    Printf.bprintf buf "<div class=\"panel\" id=\"panel-c%d\" limit=\"500\">" p;
    for v = 1 to 40 do
      Printf.bprintf buf "<val>%d</val>" (1 + ((p + v) mod 9))
    done;
    Buffer.add_string buf "</div>\n"
  done;
  Buffer.add_string buf "<h2>Catalogue</h2>\n<ul id=\"catalogue\">\n";
  for i = 1 to 1_500 do
    Gen.add_item buf (Gen.gen_item st (Printf.sprintf "p%d" i))
  done;
  Buffer.add_string buf "</ul>\n<button id=\"more\">load more</button>\n</body></html>";
  Dom.of_string (Buffer.contents buf)

(* Words allocated so far: minor words, and words allocated straight in
   the major heap, which are its words less those promoted from the
   minor heap. (The minor count of [Gc.counters] reads low on OCaml 5.1;
   [Gc.minor_words] is exact.) *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Per buy-shaped write (a new item first in the cart, then a
   [render_cached]) over [writes] writes after a warm-up: elements
   rendered, minor words, and words allocated in all (minor words and
   words allocated straight in the major heap); and the leaves the text
   of the last frame copies out. *)
let buy_costs ~cart ~writes =
  let doc = click_page ~cart in
  let ul = Option.get (Dom.get_element_by_id doc "cart") in
  let buy i =
    let li =
      Dom.create_element
        ~attrs:[ (Xmlb.Qname.make "ref", Printf.sprintf "p%d" i) ]
        (Xmlb.Qname.make "li")
    in
    Dom.append_child ~parent:li (Dom.create_text (string_of_int (1 + (i mod 97))));
    Dom.insert_first ~parent:ul li;
    R.render_cached doc
  in
  let last = ref (R.render_cached doc) in
  for i = 1 to 5 do
    last := buy i
  done;
  let counted name f =
    let c = Obs.Metrics.counter name in
    let before = Obs.Metrics.value c in
    f ();
    float_of_int (Obs.Metrics.value c - before)
  in
  let minor = Gc.minor_words () and words = words_allocated () in
  let elements =
    counted "render.elements" (fun () ->
        for i = 1 to writes do
          last := buy (5 + i)
        done)
  in
  let minor = Gc.minor_words () -. minor and words = words_allocated () -. words in
  let leaves = counted "render.copy.leaves" (fun () -> ignore (R.text !last)) in
  let per x = x /. float_of_int writes in
  (per elements, per minor, per words, leaves)

let suite =
  [
    t "plain text flows" (fun () ->
        check Alcotest.string "flow" "hello world" (render "<p>hello world</p>"));
    t "inline elements do not break lines" (fun () ->
        check Alcotest.string "inline" "a b c" (render "<p>a <b>b</b> c</p>"));
    t "block elements break lines" (fun () ->
        check Alcotest.string "blocks" "one\ntwo" (render "<div><p>one</p><p>two</p></div>"));
    t "headings are underlined" (fun () ->
        let r = render "<body><h1>Title</h1>text</body>" in
        check Alcotest.bool "underline" true (contains r "Title\n=====");
        check Alcotest.bool "body text" true (contains r "text"));
    t "h2 uses dashes" (fun () ->
        check Alcotest.bool "dashes" true (contains (render "<h2>Sub</h2>") "Sub\n---"));
    t "list items get bullets" (fun () ->
        let r = render "<ul><li>alpha</li><li>beta</li></ul>" in
        check Alcotest.bool "alpha" true (contains r "* alpha");
        check Alcotest.bool "beta" true (contains r "* beta"));
    t "table rows align with pipes" (fun () ->
        let r = render "<table><tr><th>a</th><th>b</th></tr><tr><td>1</td><td>2</td></tr></table>" in
        check Alcotest.bool "header" true (contains r "| a | b |");
        check Alcotest.bool "row" true (contains r "| 1 | 2 |"));
    t "inputs and buttons draw as widgets" (fun () ->
        let r = render "<form><input value=\"abc\"/><button>Go</button></form>" in
        check Alcotest.bool "input" true (contains r "[abc");
        check Alcotest.bool "button" true (contains r "[ Go ]"));
    t "images show alt text" (fun () ->
        check Alcotest.bool "alt" true
          (contains (render "<p><img src=\"x.gif\" alt=\"a heart\"/></p>") "[img: a heart]"));
    t "links show their target" (fun () ->
        check Alcotest.bool "href" true
          (contains (render "<p><a href=\"http://x/\">go</a></p>") "<http://x/>"));
    t "script and style are not rendered" (fun () ->
        check Alcotest.string "empty" ""
          (render "<head><script>var x = 1;</script><style>p { }</style></head>"));
    t "display:none hides" (fun () ->
        check Alcotest.string "hidden" "shown"
          (render "<body><div style=\"display: none\">secret</div><p>shown</p></body>"));
    t "show_hidden reveals" (fun () ->
        let r =
          render
            ~options:{ R.default_options with R.show_hidden = true }
            "<body><div style=\"display: none\">secret</div></body>"
        in
        check Alcotest.string "revealed" "secret" r);
    t "long text wraps at the width" (fun () ->
        let words = String.concat " " (List.init 30 (fun i -> Printf.sprintf "w%02d" i)) in
        let r = render ~options:{ R.default_options with R.width = 20 } ("<p>" ^ words ^ "</p>") in
        List.iter
          (fun line ->
            check Alcotest.bool ("line fits: " ^ line) true (String.length line <= 20))
          (String.split_on_char '\n' r));
    t "pre preserves line structure" (fun () ->
        let r = render "<pre>line1\nline2</pre>" in
        check Alcotest.bool "two lines" true (contains r "line1" && contains r "line2"));
    t "hr draws a rule" (fun () ->
        check Alcotest.bool "rule" true (contains (render "<body><hr/></body>") "------"));
    t "render reflects XQuery updates (Fig. 1 loop)" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:add($evt, $obj) {
              insert node <li>added by listener</li> into //ul
            };
            on event "onclick" at //button attach listener local:add
            </script></head>
            <body><button id="b">Add</button><ul><li>first</li></ul></body></html>|};
        let before = R.render (B.document b) in
        check Alcotest.bool "not yet" false (contains before "added by listener");
        B.click b (Option.get (Dom.get_element_by_id (B.document b) "b"));
        let after = R.render (B.document b) in
        check Alcotest.bool "rendered after update" true (contains after "added by listener"));
    t "render_cached sees a write to a tree nothing else has touched" (fun () ->
        let doc = Dom.of_string "<html><body><p>one</p></body></html>" in
        check Alcotest.string "first" "one" (cached doc);
        (* plain navigation: no index probe touches the tree *)
        let body = List.hd (Dom.children (List.hd (Dom.children doc))) in
        Dom.append_child ~parent:body (Dom.create_text " more");
        check Alcotest.string "after the write" "one\nmore" (cached doc);
        check Alcotest.string "same as a fresh render" (R.render doc) (cached doc));
    t "newlines inside a rendered line are squeezed like the rest" (fun () ->
        (* a heading's text, a cell and a button carry their newlines
           into the line they render to *)
        let doc =
          Dom.of_string
            "<html><body><h1>A\n\n\nB</h1><table><tr><td>c\n\n\nd</td></tr></table>\
             <p><button>x\n\n\n\ny</button></p></body></html>"
        in
        let want = Render_oracle.render R.default_options doc in
        check Alcotest.string "render" want (R.render doc);
        check Alcotest.string "render_cached" want (cached doc);
        check Alcotest.bool "no blank run" false (contains want "\n\n\n"));
    t "render_cached re-renders only the blocks on the written path" (fun () ->
        let doc =
          Dom.of_string
            ("<html><body><ul id='cart'/><ul id='cat'>"
            ^ String.concat "" (List.init 50 (fun i -> Printf.sprintf "<li>item %d</li>" i))
            ^ "</ul></body></html>")
        in
        ignore (R.render_cached doc);
        let cart = Option.get (Dom.get_element_by_id doc "cart") in
        let counts f =
          let cs =
            List.map Obs.Metrics.counter
              [ "render.block.miss"; "render.block.hit"; "render.memo.hit" ]
          in
          let before = List.map Obs.Metrics.value cs in
          let v = f () in
          (v, List.map2 (fun c b -> Obs.Metrics.value c - b) cs before)
        in
        Dom.insert_first ~parent:cart (let li = Dom.create_element (Xmlb.Qname.make "li") in
           Dom.append_child ~parent:li (Dom.create_text "new");
           li);
        let frame, c = counts (fun () -> R.render_cached doc) in
        check Alcotest.string "text" (R.render doc) (R.text frame);
        (* html, body, the cart and its new item miss; the catalogue hits *)
        check Alcotest.(list int) "block misses, hits, page hits" [ 4; 1; 0 ] c;
        let _, c = counts (fun () -> R.render_cached doc) in
        check Alcotest.(list int) "unchanged: a page hit" [ 0; 0; 1 ] c);
    t "at width 0 blank lines meet across blocks and squeeze as the oracle does" (fun () ->
        (* a rule is then a blank line, the one way a block's output
           can end blank *)
        let options = { R.width = 0; show_hidden = false } in
        List.iter
          (fun page ->
            let doc = Dom.of_string page in
            let want = Render_oracle.render options doc in
            check Alcotest.string page want (R.render ~options doc);
            check Alcotest.string page want (cached ~options doc))
          [
            "<body><p>x</p><hr/><hr/></body>";
            "<body><hr/><h1>T</h1><p>x</p><hr/><h2>U</h2></body>";
            "<body><p>x y</p><hr/><pre></pre><hr/><hr/></body>";
            "<body><hr/><hr/><pre></pre><p>x</p></body>";
            "<body><ul><li>a</li><li><hr/></li></ul><h3>V</h3></body>";
          ]);
    t "writes through many children of one block between renders" (fun () ->
        (* more children than a memo records: its memo is dropped and
           the block rendered again *)
        let doc =
          Dom.of_string
            ("<html><body><ul>"
            ^ String.concat "" (List.init 100 (fun i -> Printf.sprintf "<li>item %d</li>" i))
            ^ "</ul></body></html>")
        in
        let items = Dom.get_elements_by_local_name doc "li" in
        let agree step =
          check Alcotest.string step
            (Render_oracle.render R.default_options doc)
            (cached doc)
        in
        agree "cold";
        List.iteri (fun i li -> if i mod 2 = 0 then Dom.set_attribute li style_qn "display: none") items;
        agree "every other item hidden";
        List.iteri (fun i li -> if i mod 4 = 0 then Dom.remove_attribute li style_qn) items;
        agree "every fourth item shown again");
    t "a reused chunk keeps a first blank line its neighbour squeezed" (fun () ->
        (* at width 0 a rule is a blank line: the list's first chunk
           ends with one and its second starts with the heading's *)
        let options = { R.width = 0; show_hidden = false } in
        let items tag n =
          String.concat "" (List.init n (fun i -> Printf.sprintf "<li>%s%d</li>" tag i))
        in
        let doc =
          Dom.of_string
            ("<html><body><ul id='u'>" ^ items "a" 31 ^ "<hr id='r'/><h2>T</h2>" ^ items "b" 40
           ^ "</ul></body></html>")
        in
        let ul = Option.get (Dom.get_element_by_id doc "u") in
        let agree step =
          check Alcotest.string step (Render_oracle.render options doc) (cached ~options doc)
        in
        agree "cold";
        Dom.append_child ~parent:ul (Dom.create_element (Xmlb.Qname.make "li"));
        agree "both chunks reused";
        Dom.remove (Option.get (Dom.get_element_by_id doc "r"));
        agree "the first chunk no longer ends blank");
    t "a child written while it is away renders anew when it comes back" (fun () ->
        let doc =
          Dom.of_string
            ("<html><body><ul id='u'>"
            ^ String.concat "" (List.init 100 (Printf.sprintf "<li>item %d</li>"))
            ^ "</ul><div id='d'/></body></html>")
        in
        let li = Array.of_list (Dom.children (Option.get (Dom.get_element_by_id doc "u"))) in
        let agree step = check Alcotest.string step (R.render doc) (cached doc) in
        agree "cold";
        Dom.remove li.(10);
        Dom.set_value (List.hd (Dom.children li.(10))) "edited away";
        Dom.insert_before ~sibling:li.(11) li.(10);
        agree "out of the tree and back";
        Dom.append_child ~parent:(Option.get (Dom.get_element_by_id doc "d")) li.(20);
        Dom.set_value (List.hd (Dom.children li.(20))) "edited elsewhere";
        Dom.insert_before ~sibling:li.(21) li.(20);
        agree "under another parent and back");
    QCheck_alcotest.to_alcotest
      (Q.Test.make ~count:100 ~long_factor:50
         ~name:"every tag, option and write renders as the oracle does" vocabulary_arbitrary
         prop_vocabulary);
    t "a re-render after a buy costs the same at a 5 000-item cart as at 500" (fun () ->
        let e500, m500, w500, l500 = buy_costs ~cart:500 ~writes:100 in
        let e5k, m5k, w5k, l5k = buy_costs ~cart:5_000 ~writes:100 in
        List.iter
          (fun (what, small, large) ->
            if large > 1.2 *. small then
              Alcotest.failf "%s: %.1f at a 5 000-item cart, %.1f at 500 (bound 1.2x)" what large
                small)
          [
            ("elements rendered per write", e500, e5k);
            ("minor words per write", m500, m5k);
            ("words allocated per write", w500, w5k);
            ("leaves the last frame's text copied", l500, l5k);
          ]);
    t "a render nothing was written since returns the same frame" (fun () ->
        let doc = Dom.of_string "<html><body><p>one</p><ul><li>two</li></ul></body></html>" in
        let frame = R.render_cached doc in
        check Alcotest.bool "memo hit" true (R.render_cached doc == frame);
        let li = List.hd (Dom.get_elements_by_local_name doc "li") in
        Dom.append_child ~parent:li (Dom.create_text " more");
        let written = R.render_cached doc in
        check Alcotest.bool "after a write" false (written == frame);
        check Alcotest.bool "memo hit after the write" true (R.render_cached doc == written));
    t "a frame's text is copied out once" (fun () ->
        let doc = Dom.of_string "<html><body><p>one</p><ul><li>two</li></ul></body></html>" in
        let leaves = Obs.Metrics.counter "render.copy.leaves" in
        let before = Obs.Metrics.value leaves in
        let frame = R.render_cached doc in
        check Alcotest.int "a render copies nothing" before (Obs.Metrics.value leaves);
        let first = R.text frame in
        let copied = Obs.Metrics.value leaves - before in
        let again = R.text frame in
        check Alcotest.int "the second text copies nothing" copied
          (Obs.Metrics.value leaves - before);
        check Alcotest.bool "the same string" true (again == first);
        check Alcotest.bool "leaves copied" true (copied > 0);
        check Alcotest.string "text" (R.render doc) first);
    t "the memo tables of every width rendered go with the page" (fun () ->
        let render_widths first =
          let doc = Dom.of_string "<html><body><p>one two</p><ul><li>three</li></ul></body></html>" in
          for width = first to first + 9_999 do
            ignore (R.render_cached ~options:{ R.width; show_hidden = width mod 2 = 0 } doc)
          done
        in
        let live () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        render_widths 1;
        let before = live () in
        render_widths 100_000;
        let grown = live () - before in
        if grown >= 10_000 then
          Alcotest.failf "%d live words more after 10 000 widths on a dropped page (bound 10 000)"
            grown);
    t "a cold render allocates a flat 35 minor words per element or fewer" (fun () ->
        let small = words_per_element 200 and large = words_per_element 2_000 in
        if large > 35. then
          Alcotest.failf "%.1f minor words per element at 2 000 items (bound 35)" large;
        if large > 1.2 *. small then
          Alcotest.failf "%.1f minor words per element at 2 000 items, %.1f at 200 (bound 1.2x)"
            large small);
  ]
