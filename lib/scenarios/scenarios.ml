let loc source =
  String.split_on_char '\n' source
  |> List.filter (fun line ->
         let l = String.trim line in
         l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "//"))
  |> List.length

(* ------------------------------------------------------------------ *)
(* §6.3 shopping cart                                                   *)

let products_xml n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<products>";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "<product><name>product-%d</name><price>%d</price></product>" i
         (10 * i))
  done;
  Buffer.add_string buf "</products>";
  Buffer.contents buf

let shop_xquery_page =
  {|
declare updating function local:buy($evt, $obj) {
  insert node <p>{string($obj/@id)}</p> as first
  into //div[@id="shoppingcart"]
};
<html><head><title>Shop</title></head><body>
<div>Shopping cart</div>
<div id="shoppingcart"/>
<div>{
  for $p in doc("products.xml")//product
  return <div>{$p/name/text()}
    <input type='button' value='Buy' id='{$p/name}'/>
  </div>
}</div>
{ on event "onclick" at //input attach listener local:buy }
</body></html>|}

let shop_jsp_template =
  {|<html><head><script type='text/javascript'>
function buy(e) {
  newElement = document.createElement("p");
  elementText = document.createTextNode(e.target.getAttribute("id"));
  newElement.appendChild(elementText);
  var res = document.evaluate(
    "//div[@id='shoppingcart']", document, null,
    XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null);
  res.snapshotItem(0).appendChild(newElement);
}
</script></head><body>
<div>Shopping cart</div>
<div id="shoppingcart"></div>
<%
var results = statement.executeQuery("SELECT * FROM PRODUCTS");
while (results.next()) {
  out.println("<div>");
  var prodName = results.getString(1);
  out.println(prodName);
  out.println("<input type='button' value='Buy'");
  out.println("id='" + prodName + "'");
  out.println("onclick='buy(event)'/></div>");
}
results.close();
%></body></html>|}

let shop_db n =
  let db = Appserver.Sql_lite.create () in
  Appserver.Sql_lite.create_table db ~name:"PRODUCTS" ~columns:[ "NAME"; "PRICE" ];
  for i = 1 to n do
    Appserver.Sql_lite.insert_row db ~table:"PRODUCTS"
      [ Appserver.Sql_lite.Text (Printf.sprintf "product-%d" i); Appserver.Sql_lite.Int (10 * i) ]
  done;
  db

(* ------------------------------------------------------------------ *)
(* multiplication table — period-style JavaScript vs XQuery            *)

let mult_table_js_page n =
  Printf.sprintf
    {|<html>
<head>
<script type="text/javascript">
function buildTable() {
  var size = %d;
  var container = document.getElementById("container");
  var table = document.createElement("table");
  var header = document.createElement("tr");
  var corner = document.createElement("th");
  corner.appendChild(document.createTextNode("*"));
  header.appendChild(corner);
  for (var j = 1; j <= size; j++) {
    var th = document.createElement("th");
    th.appendChild(document.createTextNode(String(j)));
    header.appendChild(th);
  }
  table.appendChild(header);
  for (var i = 1; i <= size; i++) {
    var row = document.createElement("tr");
    var label = document.createElement("th");
    label.appendChild(document.createTextNode(String(i)));
    row.appendChild(label);
    for (var k = 1; k <= size; k++) {
      var cell = document.createElement("td");
      var product = i * k;
      cell.appendChild(document.createTextNode(String(product)));
      if (product %% 2 == 0) {
        cell.setAttribute("class", "even");
      } else {
        cell.setAttribute("class", "odd");
      }
      row.appendChild(cell);
    }
    table.appendChild(row);
  }
  container.appendChild(table);
}
buildTable();
</script>
</head>
<body>
<div id="container"></div>
</body>
</html>|}
    n

let mult_table_xquery_page n =
  Printf.sprintf
    {|<html>
<head>
<script type="text/xquery">
insert node
  <table>
    <tr><th>*</th>{ for $j in 1 to %d return <th>{$j}</th> }</tr>
    { for $i in 1 to %d return
      <tr><th>{$i}</th>{
        for $k in 1 to %d
        let $p := $i * $k
        return <td class="{if ($p mod 2 = 0) then 'even' else 'odd'}">{$p}</td>
      }</tr> }
  </table>
into //div[@id="container"]
</script>
</head>
<body>
<div id="container"/>
</body>
</html>|}
    n n n

(* ------------------------------------------------------------------ *)
(* §6.1 Elsevier Reference 2.0                                          *)

type elsevier = {
  server : Appserver.App_server.t;
  article_count : int;
  browse_page_path : string;
  client_page_path : string;
}

let elsevier_store_xml ~journals ~volumes ~issues ~articles =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<archive>";
  let count = ref 0 in
  for j = 1 to journals do
    Buffer.add_string buf (Printf.sprintf "<journal name=\"Journal-%d\">" j);
    for v = 1 to volumes do
      Buffer.add_string buf (Printf.sprintf "<volume number=\"%d\">" v);
      for i = 1 to issues do
        Buffer.add_string buf (Printf.sprintf "<issue number=\"%d\">" i);
        for a = 1 to articles do
          incr count;
          Buffer.add_string buf
            (Printf.sprintf
               "<article id=\"a%d\"><title>Article %d</title><year>%d</year>\
                <references>\
                <ref year=\"%d\">Ref A</ref><ref year=\"%d\">Ref B</ref>\
                </references></article>"
               !count !count
               (1990 + ((j + v + i + a) mod 18))
               (1980 + (a mod 25))
               (1985 + (v mod 20)))
        done;
        Buffer.add_string buf "</issue>"
      done;
      Buffer.add_string buf "</volume>"
    done;
    Buffer.add_string buf "</journal>"
  done;
  Buffer.add_string buf "</archive>";
  (Buffer.contents buf, !count)

(* The Reference 2.0 browse page: lists journals and per-article
   reference statistics (counts, year ranges) — the kind of view the
   paper describes ("study the references: statistics, years..."). *)
let elsevier_page =
  {|
<html><head><title>Reference 2.0</title></head><body>
<h1>Reference 2.0</h1>
<div id="browser">{
  for $j in doc("archive.xml")//journal
  return <div class="journal">{string($j/@name)}
    <ul>{
      for $a in $j//article
      let $refs := $a/references/ref
      return <li>{string($a/title)}
        <span class="stats">{count($refs)} refs, {string(min($refs/@year))}-{string(max($refs/@year))}</span>
      </li>
    }</ul>
  </div>
}</div>
</body></html>|}

let make_elsevier ?(journals = 2) ?(volumes = 2) ?(issues = 2) ?(articles = 3) http =
  let server = Appserver.App_server.create http ~host:"www.elsevier.example" in
  let xml, article_count = elsevier_store_xml ~journals ~volumes ~issues ~articles in
  Doc_store.put_xml (Appserver.App_server.store server) ~name:"archive.xml" xml;
  Appserver.App_server.add_xquery_page server ~path:"/reference" elsevier_page;
  let client_page_path = "/reference-client" in
  ignore
    (Appserver.Migration.migrate_server_page server ~path:"/reference"
       ~client_path:client_page_path);
  { server; article_count; browse_page_path = "/reference"; client_page_path }

(* ------------------------------------------------------------------ *)
(* §6.1 under a flaky network                                           *)

type flaky_report = {
  visits : int;
  pages_ok : int;
  pages_lost : int;
  queries_ok : int;
  queries_failed : int;
  fallback_hits : int;
  attempts : int;
  retries : int;
  server_requests : int;
  injected_faults : int;
  elapsed : float;
}

let run_elsevier_flaky ?journals ?volumes ?issues ?articles ?(visits = 20) ~rate
    ~seed ~resilient () =
  let clock = Virtual_clock.create () in
  let http = Http_sim.create clock in
  let e = make_elsevier ?journals ?volumes ?issues ?articles http in
  let host = Appserver.App_server.host e.server in
  let retry =
    if resilient then { Retry.default with Retry.max_attempts = 8 }
    else Retry.disabled
  in
  (* no REST memory cache: every visit re-fetches the archive, so the
     degraded network is exercised on each round; resilience comes from
     retry + the Local_store fallback instead *)
  let b =
    Xqib.Browser.create ~cache:false ~retry ~net_fallback:resilient ~seed ~clock
      ~http ()
  in
  let page_uri = "http://" ^ host ^ e.client_page_path in
  (* the first visit happens on a healthy network (it warms the
     fallback store); then the network degrades *)
  Xqib.Page.browse b page_uri;
  Xqib.Browser.run b;
  Http_sim.set_faults http ~host ~seed (Http_sim.uniform_faults ~rate);
  let pages_ok = ref 1
  and pages_lost = ref 0
  and queries_ok = ref 1
  and queries_failed = ref 0 in
  for _ = 2 to visits do
    let errors_before = List.length b.Xqib.Browser.script_errors in
    match Xqib.Page.browse b page_uri with
    | () ->
        incr pages_ok;
        Xqib.Browser.run b;
        (* the migrated client page fetches the archive via rest:get as
           it loads; a failure lands in the error console *)
        if List.length b.Xqib.Browser.script_errors > errors_before then
          incr queries_failed
        else incr queries_ok
    | exception Xq_error.Error _ -> incr pages_lost
  done;
  {
    visits;
    pages_ok = !pages_ok;
    pages_lost = !pages_lost;
    queries_ok = !queries_ok;
    queries_failed = !queries_failed;
    fallback_hits = Rest.fallback_hits b.Xqib.Browser.rest;
    attempts =
      (Rest.retry_stats b.Xqib.Browser.rest).Retry.attempts
      + b.Xqib.Browser.net_stats.Retry.attempts;
    retries =
      (Rest.retry_stats b.Xqib.Browser.rest).Retry.retries
      + b.Xqib.Browser.net_stats.Retry.retries;
    server_requests = Http_sim.request_count http ~host;
    injected_faults = Http_sim.total_injected_faults http;
    elapsed = Virtual_clock.now clock;
  }

(* ------------------------------------------------------------------ *)
(* §6.1 at fleet scale (bench T15)                                      *)

let run_fleet ?(journals = 1) ?(volumes = 1) ?(issues = 1) ?(articles = 3)
    ?(visits = 3) ?(tenants = 1) ?(spread = 10.) ?(think = 5.) ?(rate = 0.)
    ?(service_cost = 0.02) ?static_cost ?shed_depth ?retry ?max_tasks
    ?(capture_docs = false) ~sessions ~migrated ~seed () =
  let clock = Virtual_clock.create () in
  let http = Http_sim.create clock in
  let e = make_elsevier ~journals ~volumes ~issues ~articles http in
  let host = Appserver.App_server.host e.server in
  Appserver.App_server.set_queue ~service_cost ?static_cost ?shed_depth e.server;
  if rate > 0. then
    Http_sim.set_faults http ~host ~seed (Http_sim.uniform_faults ~rate);
  let config =
    {
      Appserver.Fleet.default_config with
      Appserver.Fleet.sessions;
      tenants;
      visits;
      seed;
      spread;
      think_time = think;
      capture_docs;
      page_path = (if migrated then e.client_page_path else e.browse_page_path);
    }
  in
  let config =
    match retry with Some r -> { config with Appserver.Fleet.retry = r } | None -> config
  in
  let config =
    match max_tasks with
    | Some _ -> { config with Appserver.Fleet.max_tasks }
    | None -> config
  in
  Appserver.Fleet.run ~config e.server

(* ------------------------------------------------------------------ *)
(* §6.2 maps/weather mash-up                                            *)

let setup_mashup http =
  (* the map service: JavaScript's AJAX backend *)
  Http_sim.register_host http ~host:"maps.example" (fun req ->
      let q =
        match String.index_opt req.Http_sim.path '=' with
        | Some i ->
            String.sub req.Http_sim.path (i + 1) (String.length req.Http_sim.path - i - 1)
        | None -> "unknown"
      in
      Http_sim.ok (Printf.sprintf "<map location=\"%s\"><tile x=\"1\" y=\"1\"/></map>" q));
  (* two weather services: the paper uses "a selection of different
     weather services depending on region" *)
  Http_sim.register_host http ~host:"weather-eu.example" (fun req ->
      ignore req;
      Http_sim.ok "<weather location=\"zurich\"><temp unit=\"C\">21</temp><sky>sunny</sky></weather>");
  Http_sim.register_host http ~host:"weather-us.example" (fun req ->
      ignore req;
      Http_sim.ok "<weather location=\"redwood\"><temp unit=\"F\">70</temp><sky>fog</sky></weather>");
  Http_sim.register_host http ~host:"webcams.example" (fun req ->
      ignore req;
      Http_sim.ok
        "<webcams><cam url=\"http://webcams.example/1.jpg\"/><cam url=\"http://webcams.example/2.jpg\"/></webcams>");
  {|<html><head>
<script type="text/javascript">
// the Google-Maps side: plain JavaScript + AJAX-style fetch
function onSearch(e) {
  var box = document.getElementById("searchbox");
  var map = document.getElementById("map");
  map.setAttribute("loading", box.value);
  map.innerHTML = "<tile x='1' y='1'></tile>";
  map.setAttribute("location", box.value);
}
</script>
<script type="text/javascript">
document.getElementById("search").addEventListener("onclick", onSearch, false);
</script>
<script type="text/xquery">
declare updating function local:weather($evt, $obj) {
  (: the XQuery side handles the same click: REST to the weather and
     webcam services, integrate results into the page :)
  insert node
    <div class="report">{
      let $loc := string(//input[@id="searchbox"]/@value)
      let $svc := if ($loc = ("zurich", "geneva", "basel"))
                  then "http://weather-eu.example/q"
                  else "http://weather-us.example/q"
      let $w := rest:get($svc)/weather
      return (<h2>{$loc}</h2>,
              <p>{string($w/temp), string($w/temp/@unit)}, {string($w/sky)}</p>,
              for $cam in rest:get("http://webcams.example/list")//cam
              return <img src="{$cam/@url}"/>)
    }</div>
  into //div[@id="weather"]
};
on event "onclick" at //button[@id="search"] attach listener local:weather
</script>
</head><body>
<input id="searchbox" value=""/>
<button id="search">Search</button>
<div id="map"/>
<div id="weather"/>
</body></html>|}

(* ------------------------------------------------------------------ *)
(* §4.4 AJAX suggest                                                    *)

let setup_suggest http =
  Http_sim.register_host http ~host:"hints.example" (fun req ->
      let prefix =
        match String.index_opt req.Http_sim.path '=' with
        | Some i ->
            String.sub req.Http_sim.path (i + 1) (String.length req.Http_sim.path - i - 1)
        | None -> ""
      in
      let names = [ "alice"; "albert"; "bob"; "carol"; "carla"; "dave" ] in
      let hits =
        List.filter
          (fun n ->
            String.length n >= String.length prefix
            && String.sub n 0 (String.length prefix) = prefix)
          names
      in
      Http_sim.ok
        ("<hints>"
        ^ String.concat "" (List.map (fun n -> "<hint>" ^ n ^ "</hint>") hits)
        ^ "</hints>"));
  {|<html><head>
<script type="text/xquery">
declare updating function local:onResult($readyState, $result) {
  if ($readyState = 4)
  then replace value of node //*[@id="txtHint"]
       with string-join($result//hint/text(), ", ")
  else ()
};
declare updating function local:showHint($evt, $obj) {
  if (string-length(string($obj/@value)) = 0)
  then replace value of node //*[@id="txtHint"] with ""
  else
    on event "stateChanged"
    behind rest:get(concat("http://hints.example/suggest?q=", string($obj/@value)))
    attach listener local:onResult
};
on event "onkeyup" at //input[@id="text1"] attach listener local:showHint
</script>
</head><body>
<form>First Name: <input type="text" id="text1" value=""/></form>
<p>Suggestions: <span id="txtHint"/></p>
</body></html>|}
