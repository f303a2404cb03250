(* A Gears-style offline application (paper §2.4: "with the help of
   this feature, browser-based applications can run even if the client
   is not connected to the Internet"): a notes app that syncs a
   document from the server, keeps working against the client-side
   store while offline, and serves reads from the store. *)

module B = Xqib.Browser

let page =
  {|<html><head>
<script type="text/xqueryp">
declare sequential function local:sync() {
  (: online bootstrap: pull the notes document into the local store :)
  if (browser:online())
  then browser:storePut("notes", rest:get("http://notes.example/docs/notes.xml"))
  else browser:alert("offline: using the local store");
};
declare updating function local:add($evt, $obj) {
  (: works with or without connectivity: writes go to the store :)
  insert node <note>{string(//input[@id="txt"]/@value)}</note>
  into browser:storeGet("notes")/notes
};
declare updating function local:show($evt, $obj) {
  replace value of node //span[@id="count"]
  with string(count(browser:storeGet("notes")//note))
};
{ local:sync();
  on event "onclick" at //button[@id="add"] attach listener local:add;
  on event "onclick" at //button[@id="refresh"] attach listener local:show; }
</script>
</head><body>
<input id="txt" value=""/>
<button id="add">Add note</button>
<button id="refresh">Refresh count</button>
<p>Notes: <span id="count">0</span></p>
</body></html>|}

let () =
  let clock = Virtual_clock.create () in
  let http = Http_sim.create clock in
  let server = Appserver.App_server.create http ~host:"notes.example" in
  Doc_store.put_xml
    (Appserver.App_server.store server)
    ~name:"notes.xml" "<notes><note>from the server</note></notes>";

  let b = B.create ~href:"http://notes.example/app" ~clock ~http () in
  Xqib.Page.load b page;
  let doc = B.document b in
  let el id = Option.get (Dom.get_element_by_id doc id) in

  print_endline "online: synced the notes document into the local store";

  (* go offline *)
  b.B.online <- false;
  print_endline "going OFFLINE — the network is now unreachable\n";

  (* prove it: a direct fetch fails *)
  (match
     Xqib.Page.run_xquery b b.B.top_window
       "rest:get('http://notes.example/docs/notes.xml')"
   with
  | exception Xq_error.Error e ->
      Printf.printf "direct fetch while offline: %s\n" (Xq_error.to_string e)
  | _ -> print_endline "unexpectedly fetched while offline!");

  (* but the app keeps working against the store *)
  Dom.set_attribute (el "txt") (Xmlb.Qname.make "value") "buy milk";
  B.click b (el "add");
  Dom.set_attribute (el "txt") (Xmlb.Qname.make "value") "water plants";
  B.click b (el "add");
  B.click b (el "refresh");

  Printf.printf "notes count shown in the page (offline): %s\n"
    (Dom.string_value (el "count"));
  let notes =
    Xqib.Page.run_xquery b b.B.top_window
      "for $n in browser:storeGet('notes')//note return string($n)"
  in
  print_endline "notes in the client-side store:";
  List.iter (fun n -> print_endline ("  - " ^ Xdm_item.item_string n)) notes;

  (* store is per-origin: another origin sees nothing *)
  let other = B.create ~href:"http://other.example/" ~clock ~http () in
  Xqib.Page.load other "<html><body/></html>";
  (* share the same physical machine? each browser instance has its own
     store; per-origin isolation also holds within one browser: *)
  let visible =
    Xqib.Page.run_xquery b b.B.top_window "count(browser:storeList())"
  in
  Printf.printf "\ndocuments visible to this origin: %s\n"
    (Xdm_item.to_display_string visible)
