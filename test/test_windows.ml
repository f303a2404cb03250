(* The window tree in isolation: materialization shape, registries,
   write-backs, history, geometry, and the paper's own window queries
   from §4.2.1 run against the materialized XML. *)

module W = Xqib.Windows
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let same_origin_tree () =
  (* top(http://app/) -> [left, right(child1, child2)] *)
  let top = W.create ~name:"top_window" ~href:"http://app.example/" () in
  let left = W.create ~name:"leftframe" ~href:"http://app.example/left" () in
  let right = W.create ~name:"rightframe" ~href:"http://app.example/right" () in
  let c1 = W.create ~name:"child1" ~href:"http://app.example/c1" () in
  let c2 = W.create ~name:"child2" ~href:"http://app.example/c2" () in
  W.add_frame ~parent:top left;
  W.add_frame ~parent:top right;
  W.add_frame ~parent:right c1;
  W.add_frame ~parent:right c2;
  top

let accessor = Xqib.Origin.of_uri "http://app.example/"

let structure_tests =
  [
    t "materialized tree mirrors the frame hierarchy" (fun () ->
        let top = same_origin_tree () in
        let v = W.materialize ~accessor top in
        let root = W.view_root v in
        check (Alcotest.option Alcotest.string) "top name" (Some "top_window")
          (Dom.attribute_local root "name");
        let windows = Dom.get_elements_by_local_name root "window" in
        check Alcotest.int "five windows" 5 (List.length windows);
        W.release v);
    t "status, location and geometry children exist" (fun () ->
        let top = same_origin_tree () in
        top.W.status <- "ready";
        let v = W.materialize ~accessor top in
        let root = W.view_root v in
        let child name =
          List.exists
            (fun c ->
              match Dom.name c with
              | Some q -> q.Xmlb.Qname.local = name
              | None -> false)
            (Dom.children root)
        in
        check Alcotest.bool "status" true (child "status");
        check Alcotest.bool "location" true (child "location");
        check Alcotest.bool "lastModified" true (child "lastModified");
        check Alcotest.bool "geometry" true (child "geometry");
        check Alcotest.bool "frames" true (child "frames");
        W.release v);
    t "node_of_window and window_at are inverses" (fun () ->
        let top = same_origin_tree () in
        let v = W.materialize ~accessor top in
        let left = List.hd top.W.frames in
        let node = Option.get (W.node_of_window v left) in
        check Alcotest.bool "round trip" true
          (match W.window_at v node with Some w -> w == left | None -> false);
        W.release v);
    t "window_of_node climbs from descendants" (fun () ->
        let top = same_origin_tree () in
        let v = W.materialize ~accessor top in
        let left_node = Option.get (W.node_of_window v (List.hd top.W.frames)) in
        let status = List.hd (Dom.children left_node) in
        check Alcotest.bool "resolved" true
          (match W.window_of_node v status with
          | Some w -> w == List.hd top.W.frames
          | None -> false);
        W.release v);
    t "find_by_name searches the whole tree" (fun () ->
        let top = same_origin_tree () in
        check Alcotest.bool "deep child" true (W.find_by_name top "child2" <> None);
        check Alcotest.bool "missing" true (W.find_by_name top "nope" = None));
  ]

let writeback_tests =
  [
    t "status write-back" (fun () ->
        let top = same_origin_tree () in
        let v = W.materialize ~accessor top in
        let root = W.view_root v in
        let status =
          List.find
            (fun c -> Dom.name c <> None && (Option.get (Dom.name c)).Xmlb.Qname.local = "status")
            (Dom.children root)
        in
        Dom.set_value status "Welcome";
        check Alcotest.string "propagated" "Welcome" top.W.status;
        W.release v);
    t "href write-back records navigation and fires the hook" (fun () ->
        let top = same_origin_tree () in
        let navigations = ref [] in
        let v =
          W.materialize ~accessor
            ~on_navigate:(fun w href ~commit ->
              navigations := (w.W.wname, href) :: !navigations;
              commit ())
            top
        in
        let root = W.view_root v in
        let href =
          List.hd (Dom.get_elements_by_local_name root "href")
        in
        Dom.set_value href "http://app.example/next";
        check Alcotest.string "href updated" "http://app.example/next" top.W.href;
        check Alcotest.bool "history pushed" true (top.W.history_back <> []);
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "hook" [ ("top_window", "http://app.example/next") ] !navigations;
        W.release v);
    t "cross-origin write-back is rejected and counted" (fun () ->
        let top = same_origin_tree () in
        (* accessor from a different origin sees shells; but materialize
           with Allow_all then write with a policy-checking view *)
        let evil_accessor = Xqib.Origin.of_uri "http://evil.example/" in
        let v = W.materialize ~policy:Xqib.Origin.Same_origin ~accessor:evil_accessor top in
        (* everything is a shell; no write-back possible, but mutating a
           shell must not corrupt the windows *)
        let root = W.view_root v in
        Dom.set_attribute root (Xmlb.Qname.make "name") "hacked";
        check Alcotest.string "untouched" "top_window" top.W.wname;
        W.release v);
    t "release stops the observer" (fun () ->
        let top = same_origin_tree () in
        let v = W.materialize ~accessor top in
        let root = W.view_root v in
        W.release v;
        let status =
          List.find
            (fun c -> Dom.name c <> None && (Option.get (Dom.name c)).Xmlb.Qname.local = "status")
            (Dom.children root)
        in
        Dom.set_value status "after-release";
        check Alcotest.string "not propagated" "" top.W.status);
  ]

let geometry_tests =
  [
    t "move_by and move_to" (fun () ->
        let w = W.create () in
        W.move_to w ~x:100 ~y:50;
        W.move_by w ~dx:(-10) ~dy:25;
        check Alcotest.int "x" 90 w.W.screen_x;
        check Alcotest.int "y" 75 w.W.screen_y);
    t "browser:windowMoveTo from XQuery" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        ignore
          (Xqib.Page.run_xquery b b.B.top_window
             "browser:windowMoveTo(browser:self(), 300, 200)");
        check Alcotest.int "x" 300 b.B.top_window.W.screen_x;
        check Alcotest.int "y" 200 b.B.top_window.W.screen_y);
    t "geometry visible in the window node" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        W.move_to b.B.top_window ~x:42 ~y:7;
        check Alcotest.string "screenX" "42"
          (Xdm_item.to_display_string
             (Xqib.Page.run_xquery b b.B.top_window
                "string(browser:self()/geometry/screenX)")));
  ]

(* the paper's §4.2.1 closing example: a red warning in every frame not
   pointing to an https location *)
let paper_flwor_tests =
  [
    t "warning FLWOR over all frames (§4.2.1)" (fun () ->
        let b = B.create ~href:"https://secure.example/" () in
        Xqib.Page.load b "<html><body>top page</body></html>";
        (* two same-origin frames: one https, one http — the policy
           considers scheme, so use Allow_all to reach both documents,
           matching the paper's premise that the app may access them *)
        let b = B.create ~policy:Xqib.Origin.Allow_all ~href:"https://secure.example/" () in
        Xqib.Page.load b "<html><body>top page</body></html>";
        let f1 = W.create ~name:"sec" ~href:"https://secure.example/f1" () in
        f1.W.document <- Dom.of_string "<html><body>safe</body></html>";
        let f2 = W.create ~name:"plain" ~href:"http://plain.example/f2" () in
        f2.W.document <- Dom.of_string "<html><body>unsafe</body></html>";
        W.add_frame ~parent:b.B.top_window f1;
        W.add_frame ~parent:b.B.top_window f2;
        (* the paper's literal word order: "into $d/html/body as first" *)
        ignore
          (Xqib.Page.run_xquery b b.B.top_window
             {|for $x in browser:top()//window
               let $d := browser:document($x)
               where not ($x/location/href ftcontains "https")
               return
                 insert node <h1><font color="red">Warning: this page
                 is not secure</font></h1>
                 into $d/html/body as first |});
        check Alcotest.int "warning inserted first" 1
          (List.length (Dom.get_elements_by_local_name f2.W.document "h1"));
        (match Dom.children (List.hd (Dom.get_elements_by_local_name f2.W.document "body")) with
        | first :: _ ->
            check Alcotest.string "h1 is first" "h1"
              (Option.get (Dom.name first)).Xmlb.Qname.local
        | [] -> Alcotest.fail "empty body"));
    t "warning FLWOR (standard insert order)" (fun () ->
        let b = B.create ~policy:Xqib.Origin.Allow_all ~href:"https://secure.example/" () in
        Xqib.Page.load b "<html><body>top page</body></html>";
        let f1 = W.create ~name:"sec" ~href:"https://secure.example/f1" () in
        f1.W.document <- Dom.of_string "<html><body>safe</body></html>";
        let f2 = W.create ~name:"plain" ~href:"http://plain.example/f2" () in
        f2.W.document <- Dom.of_string "<html><body>unsafe</body></html>";
        W.add_frame ~parent:b.B.top_window f1;
        W.add_frame ~parent:b.B.top_window f2;
        ignore
          (Xqib.Page.run_xquery b b.B.top_window
             {|for $x in browser:top()//window
               let $d := browser:document($x)
               where not ($x/location/href ftcontains "https")
               return
                 insert node <h1><font color="red">Warning: this page is not secure</font></h1>
                 as first into $d/html/body|});
        check Alcotest.int "warning in the http frame" 1
          (List.length (Dom.get_elements_by_local_name f2.W.document "h1"));
        check Alcotest.int "no warning in the https frame" 0
          (List.length (Dom.get_elements_by_local_name f1.W.document "h1")));
    t "paper: looking for leftframe (§4.2.1)" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        let lf = W.create ~name:"leftframe" ~href:"http://localhost/lf" () in
        W.add_frame ~parent:b.B.top_window lf;
        check Alcotest.string "found" "1"
          (Xdm_item.to_display_string
             (Xqib.Page.run_xquery b b.B.top_window
                {|count(browser:top()//window[@name="leftframe"])|})));
    t "paper: declare $win as second frame, change its location" (fun () ->
        let b = B.create () in
        Xqib.Page.load b "<html><body/></html>";
        let f1 = W.create ~name:"f1" ~href:"http://localhost/1" () in
        let f2 = W.create ~name:"f2" ~href:"http://localhost/2" () in
        W.add_frame ~parent:b.B.top_window f1;
        W.add_frame ~parent:b.B.top_window f2;
        Http_sim.register_doc b.B.http ~uri:"http://localhost/next"
          ~content_type:"text/html" "<html><body>arrived</body></html>";
        ignore
          (Xqib.Page.run_xquery b b.B.top_window
             {|{ declare variable $win := browser:self()/frames/window[2];
                 replace value of node $win/location/href with "http://localhost/next" }|});
        check Alcotest.string "navigated" "http://localhost/next" f2.W.href;
        (* navigation loaded the new page into the frame *)
        check Alcotest.string "page loaded" "arrived" (Dom.string_value f2.W.document));
  ]

(* A window moves only once its new page has been fetched and parsed. *)
let navigation_tests =
  let strings = Alcotest.(list string) in
  [
    t "a navigation to a page the server does not have leaves the window as it was" (fun () ->
        let b = B.create () in
        Xqib.Page.load b
          {|<html><head>
            <script type="text/xquery">replace value of node browser:self()/location/href with "http://bad.example/x"</script>
            <script type="text/xquery">browser:alert(string(browser:self()/location/href))</script>
            </head><body><p>old</p></body></html>|};
        let w = b.B.top_window in
        check strings "the next script sees the old href" [ "http://localhost/" ] (B.alerts b);
        check Alcotest.string "href" "http://localhost/" w.W.href;
        check strings "history" [] w.W.history_back;
        check Alcotest.(list string) "document" [ "old" ]
          (List.map Dom.string_value (Dom.get_elements_by_local_name w.W.document "p"));
        check strings "error"
          [ "[SEBR0404] cannot load http://bad.example/x: status 502" ]
          b.B.script_errors);
    t "going back to a page the server does not have keeps the history" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://localhost/b" ~content_type:"text/html"
          "<html><body>b</body></html>";
        Xqib.Page.browse b "http://localhost/b";
        let w = b.B.top_window in
        check strings "history before" [ "http://localhost/" ] w.W.history_back;
        (match Xqib.Page.run_xquery b w "browser:historyBack()" with
        | _ -> Alcotest.fail "expected SEBR0404"
        | exception Xq_error.Error e -> check Alcotest.string "code" "SEBR0404" e.Xq_error.code);
        check Alcotest.string "href" "http://localhost/b" w.W.href;
        check strings "history after" [ "http://localhost/" ] w.W.history_back;
        check strings "forward" [] w.W.history_forward;
        check Alcotest.string "document" "b" (Dom.string_value w.W.document));
    t "a page loaded by a navigation sees its own href" (fun () ->
        let b = B.create () in
        Http_sim.register_doc b.B.http ~uri:"http://localhost/next" ~content_type:"text/html"
          {|<html><head><script type="text/xquery">browser:alert(string(browser:self()/location/href))</script></head><body/></html>|};
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">replace value of node browser:self()/location/href with "http://localhost/next"</script></head><body/></html>|};
        check strings "alert" [ "http://localhost/next" ] (B.alerts b);
        check strings "history" [ "http://localhost/" ] b.B.top_window.W.history_back;
        check strings "no error" [] b.B.script_errors);
  ]

let suite =
  structure_tests @ writeback_tests @ geometry_tests @ paper_flwor_tests @ navigation_tests
