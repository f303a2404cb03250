(* The text renderer: block/inline flow, widgets, tables, wrapping,
   hidden elements, and its interplay with XQuery updates (render after
   update shows the change — the end of the Fig. 1 loop). *)

module R = Xqib.Renderer
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let render ?options s = R.render ?options (Dom.of_string s)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  m = 0 || scan 0

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
    t "line_count" (fun () ->
        check Alcotest.bool "several" true
          (R.line_count (Dom.of_string "<ul><li>a</li><li>b</li><li>c</li></ul>") >= 3));
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
        check Alcotest.string "first" "one" (R.render_cached doc);
        (* plain navigation: no index probe touches the tree *)
        let body = List.hd (Dom.children (List.hd (Dom.children doc))) in
        Dom.append_child ~parent:body (Dom.create_text " more");
        check Alcotest.string "after the write" "one\nmore" (R.render_cached doc);
        check Alcotest.string "same as a fresh render" (R.render doc) (R.render_cached doc));
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
        check Alcotest.string "render_cached" want (R.render_cached doc);
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
          let prev = !Obs.Metrics.enabled in
          Obs.Metrics.enabled := true;
          let names = [ "render.block.miss"; "render.block.hit"; "render.memo.hit" ] in
          let before = List.map Obs.Metrics.counter names in
          let v = f () in
          Obs.Metrics.enabled := prev;
          (v, List.map2 (fun n b -> Obs.Metrics.counter n - b) names before)
        in
        Dom.insert_first ~parent:cart (let li = Dom.create_element (Xmlb.Qname.make "li") in
           Dom.append_child ~parent:li (Dom.create_text "new");
           li);
        let text, c = counts (fun () -> R.render_cached doc) in
        check Alcotest.string "text" (R.render doc) text;
        (* html, body, the cart and its new item miss; the catalogue hits *)
        check Alcotest.(list int) "block misses, hits, page hits" [ 4; 1; 0 ] c;
        let _, c = counts (fun () -> R.render_cached doc) in
        check Alcotest.(list int) "unchanged: a page hit" [ 0; 0; 1 ] c);
  ]
