(* The application server stack: micro-SQL, JSP-style templating (the
   §6.3 baseline), XQuery server pages, and the §6.1 migration tool. *)

module AS = Appserver.App_server
module B = Xqib.Browser

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let () = Minijs.Js_interp.install ()

let sample_db () =
  let db = Appserver.Sql_lite.create () in
  Appserver.Sql_lite.create_table db ~name:"PRODUCTS" ~columns:[ "NAME"; "PRICE" ];
  Appserver.Sql_lite.insert_row db ~table:"PRODUCTS"
    [ Appserver.Sql_lite.Text "laptop"; Appserver.Sql_lite.Int 999 ];
  Appserver.Sql_lite.insert_row db ~table:"PRODUCTS"
    [ Appserver.Sql_lite.Text "mouse"; Appserver.Sql_lite.Int 19 ];
  Appserver.Sql_lite.insert_row db ~table:"PRODUCTS"
    [ Appserver.Sql_lite.Text "keyboard"; Appserver.Sql_lite.Int 49 ];
  db

let sql_tests =
  let open Appserver.Sql_lite in
  [
    t "select star" (fun () ->
        check Alcotest.int "3 rows" 3 (List.length (query (sample_db ()) "SELECT * FROM PRODUCTS")));
    t "projection" (fun () ->
        match query (sample_db ()) "SELECT NAME FROM PRODUCTS" with
        | [ ("NAME", Text "laptop") ] :: _ -> ()
        | _ -> Alcotest.fail "bad projection");
    t "where equality" (fun () ->
        check Alcotest.int "1 row" 1
          (List.length (query (sample_db ()) "SELECT * FROM PRODUCTS WHERE NAME = 'mouse'")));
    t "where comparison" (fun () ->
        check Alcotest.int "cheap" 2
          (List.length (query (sample_db ()) "SELECT * FROM PRODUCTS WHERE PRICE < 100")));
    t "where conjunction" (fun () ->
        check Alcotest.int "one" 1
          (List.length
             (query (sample_db ()) "SELECT * FROM PRODUCTS WHERE PRICE < 100 AND NAME = 'mouse'")));
    t "order by" (fun () ->
        match query (sample_db ()) "SELECT NAME FROM PRODUCTS ORDER BY PRICE" with
        | [ ("NAME", Text "mouse") ] :: _ -> ()
        | _ -> Alcotest.fail "expected mouse first");
    t "order by desc" (fun () ->
        match query (sample_db ()) "SELECT NAME FROM PRODUCTS ORDER BY PRICE DESC" with
        | [ ("NAME", Text "laptop") ] :: _ -> ()
        | _ -> Alcotest.fail "expected laptop first");
    t "insert statement" (fun () ->
        let db = sample_db () in
        ignore (query db "INSERT INTO PRODUCTS VALUES ('pen', 2)");
        check Alcotest.int "4 rows" 4 (row_count db ~table:"PRODUCTS"));
    t "case-insensitive table names" (fun () ->
        check Alcotest.int "3" 3 (List.length (query (sample_db ()) "select * from products")));
    t "unknown table errors" (fun () ->
        match query (sample_db ()) "SELECT * FROM NOPE" with
        | exception Sql_error _ -> ()
        | _ -> Alcotest.fail "expected Sql_error");
    t "unknown column errors" (fun () ->
        match query (sample_db ()) "SELECT ZZZ FROM PRODUCTS" with
        | exception Sql_error _ -> ()
        | _ -> Alcotest.fail "expected Sql_error");
  ]

let jsp_tests =
  [
    t "plain template passes through" (fun () ->
        let j = Appserver.Jsp_sim.create () in
        check Alcotest.string "static" "<p>hi</p>" (Appserver.Jsp_sim.render j "<p>hi</p>"));
    t "expression segments" (fun () ->
        let j = Appserver.Jsp_sim.create () in
        check Alcotest.string "expr" "v=7" (Appserver.Jsp_sim.render j "v=<%= 3 + 4 %>"));
    t "scriptlet with out.println" (fun () ->
        let j = Appserver.Jsp_sim.create () in
        check Alcotest.string "println" "x\n"
          (Appserver.Jsp_sim.render j "<% out.println('x'); %>"));
    t "scriptlets share state across segments" (fun () ->
        let j = Appserver.Jsp_sim.create () in
        check Alcotest.string "shared" "10"
          (Appserver.Jsp_sim.render j "<% var n = 10; %><%= n %>"));
    t "paper-style ResultSet loop over SQL" (fun () ->
        let j = Appserver.Jsp_sim.create ~db:(sample_db ()) () in
        let page =
          "<% var results = statement.executeQuery(\"SELECT * FROM PRODUCTS\");\n\
           while (results.next()) {\n\
             out.println(\"<div>\");\n\
             var prodName = results.getString(1);\n\
             out.println(prodName);\n\
             out.println(\"</div>\");\n\
           }\n\
           results.close(); %>"
        in
        let html = Appserver.Jsp_sim.render j page in
        check Alcotest.bool "has laptop" true
          (Str.string_match (Str.regexp ".*laptop.*") (String.map (function '\n' -> ' ' | c -> c) html) 0));
    t "sql.query array form" (fun () ->
        let j = Appserver.Jsp_sim.create ~db:(sample_db ()) () in
        check Alcotest.string "count" "3"
          (Appserver.Jsp_sim.render j "<%= sql.query('SELECT * FROM PRODUCTS').length %>"));
    t "render over http counts renders" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let j = Appserver.Jsp_sim.create () in
        Appserver.Jsp_sim.register_page j http ~host:"jsp" ~path:"/p" "static";
        ignore (Http_sim.fetch http "http://jsp/p");
        ignore (Http_sim.fetch http "http://jsp/p");
        check Alcotest.int "renders" 2 (Appserver.Jsp_sim.render_count j));
    t "unterminated scriptlet errors" (fun () ->
        let j = Appserver.Jsp_sim.create () in
        match Appserver.Jsp_sim.render j "<% var x = 1;" with
        | exception Appserver.Jsp_sim.Render_error _ -> ()
        | _ -> Alcotest.fail "expected Render_error");
  ]

let xquery_server_tests =
  [
    t "server renders an xquery page against the store" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        Doc_store.put_xml (AS.store srv) ~name:"products.xml"
          "<products><product><name>laptop</name></product></products>";
        AS.add_xquery_page srv ~path:"/list"
          "<ul>{ for $p in doc('products.xml')//product return <li>{string($p/name)}</li> }</ul>";
        let r = Http_sim.fetch http "http://pub/list" in
        check Alcotest.string "rendered" "<ul><li>laptop</li></ul>" r.Http_sim.body;
        check Alcotest.int "one evaluation" 1 (AS.evaluations srv));
    t "each request re-evaluates" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_xquery_page srv ~path:"/p" "<x/>";
        ignore (Http_sim.fetch http "http://pub/p");
        ignore (Http_sim.fetch http "http://pub/p");
        ignore (Http_sim.fetch http "http://pub/p");
        check Alcotest.int "three evals" 3 (AS.evaluations srv));
    t "docs served next to pages" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        Doc_store.put_xml (AS.store srv) ~name:"d.xml" "<d/>";
        AS.add_xquery_page srv ~path:"/p" "<x/>";
        check Alcotest.string "doc" "<d/>" (Http_sim.fetch http "http://pub/docs/d.xml").Http_sim.body;
        check Alcotest.string "page" "<x/>" (Http_sim.fetch http "http://pub/p").Http_sim.body);
    t "library modules served as application/xquery" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_module srv ~path:"/lib.xq"
          "module namespace m = 'urn:m'; declare function m:one() { 1 };";
        let r = Http_sim.fetch http "http://pub/lib.xq" in
        check Alcotest.string "content type" "application/xquery" r.Http_sim.content_type);
    t "doc-available resolves the same URIs fn:doc loads" (fun () ->
        (* regression: the doc-available hook used to check the raw URI
           against the store, so full /docs/ URIs that fn:doc loaded
           fine reported as unavailable *)
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        Doc_store.put_xml (AS.store srv) ~name:"d.xml" "<d/>";
        AS.add_xquery_page srv ~path:"/p"
          ("<r>{doc-available('" ^ AS.doc_uri srv ~name:"d.xml"
          ^ "')}-{doc-available('d.xml')}-{doc-available('"
          ^ AS.doc_uri srv ~name:"missing.xml" ^ "')}</r>");
        check Alcotest.string "full uri, bare name, missing"
          "<r>true-true-false</r>" (AS.render_page srv ~path:"/p"));
    t "a /docsearch page is not captured by the /docs route" (fun () ->
        (* regression: the docs dispatch matched the bare "/docs" prefix,
           so any page whose path merely started with it was a 404 *)
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        Doc_store.put_xml (AS.store srv) ~name:"d.xml" "<d/>";
        AS.add_static_page srv ~path:"/docsearch" "<form>search</form>";
        let r = Http_sim.fetch http "http://pub/docsearch" in
        check Alcotest.int "page reachable" 200 r.Http_sim.status;
        check Alcotest.string "page body" "<form>search</form>" r.Http_sim.body;
        check Alcotest.string "store still served" "<d/>"
          (Http_sim.fetch http "http://pub/docs/d.xml").Http_sim.body);
  ]

let queue_tests =
  [
    t "service cost becomes queueing latency" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_xquery_page srv ~path:"/p" "<x/>";
        AS.set_queue ~service_cost:1.0 srv;
        (* serve without advancing the clock: three back-to-back
           arrivals queue behind one another *)
        for _ = 1 to 3 do ignore (Http_sim.serve http "http://pub/p") done;
        check (Alcotest.array (Alcotest.float 1e-9)) "waits stack up"
          [| 1.; 2.; 3. |] (AS.latencies srv);
        check Alcotest.int "depth high-water" 3 (AS.max_queue_depth srv);
        check Alcotest.int "all admitted" 3 (AS.served_requests srv);
        check Alcotest.int "no sheds" 0 (AS.sheds srv);
        (* the third response's latency carries its 3 s of server time *)
        let _, lat = Http_sim.serve http "http://pub/p" in
        check Alcotest.bool "latency includes queue time" true (lat > 4.));
    t "zero-cost queue is inert" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_xquery_page srv ~path:"/p" "<x/>";
        for _ = 1 to 5 do ignore (Http_sim.fetch http "http://pub/p") done;
        check Alcotest.int "nothing recorded" 0 (AS.served_requests srv);
        check Alcotest.int "no depth" 0 (AS.max_queue_depth srv));
    t "admission control sheds with a Retry-After hint" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_xquery_page srv ~path:"/p" "<x/>";
        AS.set_queue ~service_cost:1.0 ~shed_depth:2 srv;
        let responses = List.init 4 (fun _ -> fst (Http_sim.serve http "http://pub/p")) in
        let statuses = List.map (fun r -> r.Http_sim.status) responses in
        check (Alcotest.list Alcotest.int) "two in, two shed" [ 200; 200; 503; 503 ]
          statuses;
        check Alcotest.int "sheds counted" 2 (AS.sheds srv);
        check Alcotest.bool "depth bounded at threshold" true
          (AS.max_queue_depth srv <= 2);
        (match List.nth responses 2 with
        | { Http_sim.retry_after = Some ra; _ } ->
            check (Alcotest.float 1e-9) "hint: when a slot frees" 1. ra
        | _ -> Alcotest.fail "shed response carries Retry-After"));
    t "retry policies honour Retry-After" (fun () ->
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let calls = ref 0 in
        Http_sim.register_host http ~host:"h" (fun _ ->
            incr calls;
            if !calls = 1 then
              { Http_sim.status = 503; body = "overloaded";
                content_type = "text/plain"; retry_after = Some 7. }
            else Http_sim.ok "<x/>");
        let policy = { Retry.default with Retry.max_attempts = 3; jitter = 0. } in
        let r = Retry.fetch ~policy http "http://h/x" in
        check Alcotest.int "eventually 200" 200 r.Http_sim.status;
        (* the 0.1 s backoff was raised to the server's 7 s hint *)
        check Alcotest.bool "waited out the hint" true (Virtual_clock.now clock >= 7.));
    t "tenants get their own compiled-page partitions" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_xquery_page srv ~path:"/p" "<x>{1+1}</x>";
        AS.set_tenants srv 3;
        let fetch path = (Http_sim.fetch http ("http://pub" ^ path)).Http_sim.body in
        check Alcotest.string "tenant 1" "<x>2</x>" (fetch "/t1/p");
        check Alcotest.string "tenant 2" "<x>2</x>" (fetch "/t2/p");
        check Alcotest.string "tenant 1 again" "<x>2</x>" (fetch "/t1/p");
        check Alcotest.string "tenant 0 unprefixed" "<x>2</x>" (fetch "/p");
        check Alcotest.int "one lazy compile per non-zero tenant" 2
          (AS.tenant_compiles srv);
        check Alcotest.int "tenant 1 partition hit on revisit" 1
          (AS.tenant_cache_stats srv ~tenant:1).Xquery.Query_cache.hits;
        check Alcotest.int "four evaluations" 4 (AS.evaluations srv));
    t "an out-of-range tenant prefix is a plain path" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        let srv = AS.create http ~host:"pub" in
        AS.add_xquery_page srv ~path:"/p" "<x/>";
        AS.set_tenants srv 2;
        check Alcotest.int "404, not tenant routing" 404
          (Http_sim.fetch http "http://pub/t9/p").Http_sim.status);
  ]

let server_page =
  {|
declare updating function local:buy($evt, $obj) {
  insert node <p>{string($obj/@id)}</p> as first into //div[@id="shoppingcart"]
};
<html><head><title>Shop</title></head><body>
<div>Shopping cart</div>
<div id="shoppingcart"/>
<div>{
  for $p in doc("products.xml")//product
  return <div>{$p/name/text()}<input type='button' value='Buy' id='{$p/name}'/></div>
}</div>
{ on event "onclick" at //input attach listener local:buy }
</body></html>|}

let setup_shop () =
  let clock = Virtual_clock.create () in
  let http = Http_sim.create clock in
  let srv = AS.create http ~host:"shop" in
  Doc_store.put_xml (AS.store srv) ~name:"products.xml"
    "<products><product><name>laptop</name></product><product><name>mouse</name></product></products>";
  AS.add_xquery_page srv ~path:"/shop" server_page;
  (clock, http, srv)

let migration_tests =
  [
    t "migrated page contains script and slots" (fun () ->
        let _, _, srv = setup_shop () in
        let client = Appserver.Migration.migrate_server_page srv ~path:"/shop" ~client_path:"/shop2" in
        check Alcotest.bool "script tag" true
          (Str.string_match (Str.regexp ".*text/xqueryp.*") (String.map (function '\n' -> ' ' | c -> c) client) 0);
        check Alcotest.bool "slot" true
          (Str.string_match (Str.regexp ".*xqib-slot-1.*") (String.map (function '\n' -> ' ' | c -> c) client) 0));
    t "migrated page rewrites doc() to rest:get" (fun () ->
        let _, _, srv = setup_shop () in
        let client = Appserver.Migration.migrate_server_page srv ~path:"/shop" ~client_path:"/shop2" in
        let flat = String.map (function '\n' -> ' ' | c -> c) client in
        check Alcotest.bool "rest:get" true
          (Str.string_match (Str.regexp ".*rest:get('http://shop/docs/products.xml').*") flat 0);
        check Alcotest.bool "no fn:doc left" false
          (Str.string_match (Str.regexp ".*doc(\"products.*") flat 0));
    t "client loads migrated page and builds the product list" (fun () ->
        let clock, http, srv = setup_shop () in
        ignore (Appserver.Migration.migrate_server_page srv ~path:"/shop" ~client_path:"/shop2");
        let b = B.create ~clock ~http () in
        Xqib.Page.browse b "http://shop/shop2";
        B.run b;
        let doc = B.document b in
        check Alcotest.int "two products" 2
          (List.length (Dom.get_elements_by_local_name doc "input"));
        (* zero server-side evaluations: all work moved to the client *)
        check Alcotest.int "no server evals" 0 (AS.evaluations srv));
    t "migrated page is interactive (the cart works)" (fun () ->
        let clock, http, srv = setup_shop () in
        ignore (Appserver.Migration.migrate_server_page srv ~path:"/shop" ~client_path:"/shop2");
        let b = B.create ~clock ~http () in
        Xqib.Page.browse b "http://shop/shop2";
        B.run b;
        let doc = B.document b in
        (match Dom.get_elements_by_local_name doc "input" with
        | first :: _ -> B.click b first
        | [] -> Alcotest.fail "no inputs");
        let cart = Option.get (Dom.get_element_by_id doc "shoppingcart") in
        check Alcotest.string "cart has item" "laptop" (Dom.string_value cart));
    t "client caching collapses repeat document fetches (Fig. 2)" (fun () ->
        let clock, http, srv = setup_shop () in
        ignore (Appserver.Migration.migrate_server_page srv ~path:"/shop" ~client_path:"/shop2");
        let b = B.create ~cache:true ~clock ~http () in
        Xqib.Page.browse b "http://shop/shop2";
        B.run b;
        Http_sim.reset_stats http;
        (* further client-side queries over the same document *)
        for _ = 1 to 5 do
          ignore
            (Xqib.Page.run_xquery b b.B.top_window
               "count(rest:get('http://shop/docs/products.xml')//product)")
        done;
        check Alcotest.int "zero network requests" 0 (Http_sim.total_requests http));
    t "migration of a non-element page fails cleanly" (fun () ->
        match Appserver.Migration.migrate ~doc_base:"http://x/docs/" "1 + 1" with
        | exception Xq_error.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
  ]

(* One request of the §6.1 page allocates for its result, not for
   evaluation scaffolding: the words one render allocates per article,
   minor words and blocks allocated straight in the major heap (such as
   a growing buffer's) alike, stay under a bound and flat as the archive
   grows. *)
let allocation_tests =
  let words_allocated = Test_renderer.words_allocated in
  let words_per_article ~journals ~volumes ~issues ~articles =
    let http = Http_sim.create (Virtual_clock.create ()) in
    let e = Scenarios.make_elsevier ~journals ~volumes ~issues ~articles http in
    let path = e.Scenarios.browse_page_path in
    (* the first render compiles the page and builds the archive's
       indexes *)
    ignore (AS.render_page e.Scenarios.server ~path);
    let before = words_allocated () in
    ignore (AS.render_page e.Scenarios.server ~path);
    (words_allocated () -. before) /. float_of_int e.Scenarios.article_count
  in
  [
    t "a request of the 6.1 page allocates at most 640 words per article" (fun () ->
        let small = words_per_article ~journals:2 ~volumes:2 ~issues:5 ~articles:5 in
        let large = words_per_article ~journals:4 ~volumes:2 ~issues:5 ~articles:10 in
        check Alcotest.bool (Printf.sprintf "%.1f words per article at 100 articles" small) true
          (small <= 640.);
        check Alcotest.bool (Printf.sprintf "%.1f words per article at 400 articles" large) true
          (large <= 640.);
        check Alcotest.bool
          (Printf.sprintf "400 articles within 1.1x of 100: %.1f vs %.1f" large small)
          true
          (large <= 1.1 *. small));
  ]

let suite =
  sql_tests @ jsp_tests @ xquery_server_tests @ queue_tests @ migration_tests
  @ allocation_tests
