(* Per-document state is owned by its node, root and window: listeners
   live on their node, footprints on their root's watch, memos in their
   listener's closure, script contexts on their window, and a compiled
   query cache entry keeps no page. So navigating, removing a frame or
   dropping a fleet frees what the page created, and no listener is
   silently unregistered however many a page has. *)

module B = Xqib.Browser
module W = Xqib.Windows
module I = Xdm_item

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let counter name = List.assoc name (Xquery.Reactive.counter_stats ())

(* Live heap bytes after a full major collection. *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let mb bytes = float_of_int bytes /. 1048576.

let by_id b id = Option.get (Dom.get_element_by_id (B.document b) id)

let buttons n =
  String.concat ""
    (List.init n (fun i -> Printf.sprintf {|<button id="b%d">item %d</button>|} i i))

(* ------------------------------------------------------------------ *)
(* Ownership semantics                                                 *)

let semantics_tests =
  [
    t "a listener inside a subtree removed by replace node stops firing"
      (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:hit($evt, $obj) {
              insert node <hit/> into //log
            };
            on event "onclick" at //button attach listener local:hit
            </script></head>
            <body><log/><div id="d"><button id="x"/></div></body></html>|};
        B.click b (by_id b "x");
        ignore
          (Xqib.Page.run_xquery b b.B.top_window
             {|replace node //div[@id='d'] with <div id="d"><button id="x"/></div>|});
        (* the button now at id "x" is a new node: the old one took its
           listener with it *)
        B.click b (by_id b "x");
        check Alcotest.int "fired once, before the replace" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "hit"));
        check Alcotest.int "no listener on the replacement" 0
          (Dom_event.listener_count (by_id b "x")));
    t "browser:stats() counts the listeners in the window's document"
      (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          (Printf.sprintf
             {|<html><head><script type="text/xquery">
               declare function local:f($evt, $obj) { 1 };
               on event "onclick" at //button attach listener local:f
               </script></head><body>%s</body></html>|}
             (buttons 3));
        let listeners () =
          I.to_display_string
            (Xqib.Page.run_xquery b b.B.top_window
               "string(browser:stats()/reactive/@listeners)")
        in
        check Alcotest.string "one per button" "3" (listeners ());
        ignore
          (Xqib.Page.run_xquery b b.B.top_window
             {|on event "onclick" at //button detach listener local:f|});
        check Alcotest.string "detached" "0" (listeners ()));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental switch                                                  *)

let incremental_tests =
  [
    t "a memo recorded before --no-incremental never skips a write made \
       while it was off"
      (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare function local:pure($evt, $obj) { count($obj//item) };
            on event "tick" at //div attach listener local:pure
            </script></head><body><div id="d"><item/></div></body></html>|};
        let d = by_id b "d" in
        Xquery.Reactive.reset_counters ();
        B.dispatch b ~target:d "tick";
        B.dispatch b ~target:d "tick";
        check Alcotest.int "recorded, then skipped" 1 (counter "skips");
        Xmlb.Ablation.with_ { Xmlb.Ablation.current with incremental = false }
          (fun () ->
            ignore
              (Xqib.Page.run_xquery b b.B.top_window
                 {|insert node <item/> into //div[@id='d']|}));
        B.dispatch b ~target:d "tick";
        check Alcotest.int "re-ran after the unseen write" 1 (counter "skips");
        check Alcotest.int "two runs" 2 (counter "reruns");
        B.dispatch b ~target:d "tick";
        check Alcotest.int "skips again once re-recorded" 2 (counter "skips"));
  ]

(* ------------------------------------------------------------------ *)
(* No listener is unregistered behind the page's back                  *)

let over_cap_tests =
  [
    t "the first of 1 100 pure listeners skips like the last" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          (Printf.sprintf
             {|<html><head><script type="text/xquery">
               declare function local:f($evt, $obj) { string($obj/@id) };
               on event "onclick" at //button attach listener local:f
               </script></head><body>%s</body></html>|}
             (buttons 1100));
        let skips_on id =
          let before = counter "skips" in
          for _ = 1 to 3 do
            B.click b (by_id b id)
          done;
          counter "skips" - before
        in
        check Alcotest.int "first button" 2 (skips_on "b0");
        check Alcotest.int "last button" 2 (skips_on "b1099"));
  ]

(* ------------------------------------------------------------------ *)
(* Teardown: what a page created goes away with it                     *)

(* A 500-item page with its own script source: an updating listener on
   every button and a pure one on the body. *)
let soak_page n =
  Printf.sprintf
    {|<html><head><script type="text/xquery">
      declare updating function local:buy($evt, $obj) {
        insert node <bought page="%d"/> into $obj
      };
      declare function local:total($evt, $obj) { count($obj//button) + %d };
      (on event "onclick" at //button attach listener local:buy,
       on event "tick" at //body attach listener local:total)
      </script></head><body>%s</body></html>|}
    n n (buttons 500)

let navigate b n =
  Xqib.Page.load b (soak_page n);
  let body = List.hd (Dom.get_elements_by_local_name (B.document b) "body") in
  B.dispatch b ~target:body "tick";
  B.dispatch b ~target:body "tick";
  B.click b (by_id b "b7");
  B.run b

let teardown_tests =
  [
    t "one tab, 200 navigations: the live heap stays flat" (fun () ->
        let b = B.create () in
        for n = 1 to 20 do
          navigate b n
        done;
        let at20 = live_bytes () in
        let skips0 = counter "skips" in
        for n = 21 to 200 do
          navigate b n
        done;
        let grown = live_bytes () - at20 in
        check Alcotest.int "every page's pure listener skipped its second tick"
          180
          (counter "skips" - skips0);
        if grown >= 2 * 1048576 then
          Alcotest.failf "live heap grew by %.2f MB from navigation 20 to 200"
            (mb grown));
    t "one page, 1 000 cycles of inserting and deleting 100 items: the live heap stays flat"
      (fun () ->
        (* the value index, order labels and name buckets of one root
           follow every write; none may keep what a write took out *)
        let b = B.create () in
        Xqib.Page.load b
          ("<html><body><ul>"
          ^ String.concat ""
              (List.init 1_000 (fun i -> Printf.sprintf {|<li k="%d">%d</li>|} (i mod 10) i))
          ^ "</ul></body></html>");
        let run src = Xqib.Page.run_xquery b b.B.top_window src in
        let cycle () =
          ignore (run "insert nodes (for $j in 1 to 100 return <li k='new'>{$j}</li>) into //ul");
          ignore (run "count(//li[@k = 'new'])");
          ignore (run "delete nodes //li[@k = 'new']")
        in
        for _ = 1 to 100 do
          cycle ()
        done;
        let at100 = live_bytes () in
        for _ = 101 to 1_000 do
          cycle ()
        done;
        let at1000 = live_bytes () in
        check Alcotest.string "the page is as it was" "1000"
          (I.to_display_string (run "count(//li)"));
        if float_of_int at1000 > 1.2 *. float_of_int at100 then
          Alcotest.failf "live heap %.2f MB after 1 000 cycles, %.2f MB after 100 (bound 1.2x)"
            (mb at1000) (mb at100));
    t "a finished 200-session fleet leaves no live heap behind" (fun () ->
        List.iter
          (fun migrated ->
            let go sessions =
              ignore (Scenarios.run_fleet ~sessions ~migrated ~seed:7 ())
            in
            go 5;
            let before = live_bytes () in
            go 200;
            let grown = live_bytes () - before in
            if abs grown >= 524288 then
              Alcotest.failf "%s fleet: live heap moved by %.2f MB"
                (if migrated then "migrated" else "server-rendered")
                (mb grown))
          [ false; true ]);
    t "a page without XQuery keeps no XQuery context" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body><p id='x'>hi</p></body></html>";
        check Alcotest.bool "no script, no handler: no context" true
          (Option.is_none (Xqib.Page.xquery_context b.B.top_window));
        Xqib.Page.load b
          {|<html><body><button id="b" onclick="browser:alert('hi')">go</button></body></html>|};
        check Alcotest.bool "an XQuery on* handler takes one" true
          (Option.is_some (Xqib.Page.xquery_context b.B.top_window));
        B.click b (by_id b "b");
        check Alcotest.(list string) "the handler runs" [ "hi" ] (B.alerts b));
    t "a removed frame's document is collected" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body><p>top</p></body></html>";
        (* load a scripted page into a frame, use it, remove the frame;
           only a weak pointer to its document comes back *)
        let[@inline never] frame_document () =
          let frame = W.create ~name:"f" ~href:"http://localhost/f" () in
          W.add_frame ~parent:b.B.top_window frame;
          Xqib.Page.load ~window:frame b
            {|<html><head><script type="text/xquery">
              declare function local:f($evt, $obj) { count(//p) };
              on event "onclick" at //p attach listener local:f
              </script></head><body><p id="p">frame</p></body></html>|};
          B.click b (Option.get (Dom.get_element_by_id frame.W.document "p"));
          B.run b;
          W.remove_frame frame;
          let doc = Weak.create 1 in
          Weak.set doc 0 (Some frame.W.document);
          doc
        in
        let doc = frame_document () in
        Gc.full_major ();
        check Alcotest.bool "document collected" false (Weak.check doc 0);
        check Alcotest.int "top window still has its page" 1
          (List.length (Dom.get_elements_by_local_name (B.document b) "p")));
  ]

let suite =
  semantics_tests @ incremental_tests @ over_cap_tests @ teardown_tests
