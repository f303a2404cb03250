(* The benchmark harness: regenerates every figure and quantitative
   claim of the paper (F1–F3, T1–T7) and the ablations of the seven
   optimisation layers (T8–T16); DESIGN.md §3 is the index and
   EXPERIMENTS.md has the figures. The ablation sections T8 and
   T11–T14, T16 are specs in one table, run by {!Table}. *)

module B = Xqib.Browser
module AS = Appserver.App_server
module Fleet = Appserver.Fleet
module Ablation = Xmlb.Ablation
open Bench_util
open Table

let () = Minijs.Js_interp.install ()

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)

let browser_with ?cache ?(page = "<html><body/></html>") () =
  let b = B.create ?cache () in
  Xqib.Page.load b page;
  b

let wide_page n =
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf "<html><body><div id=\"root\">";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "<item id=\"i%d\" class=\"%s\">value %d</item>" i
         (if i mod 2 = 0 then "even" else "odd")
         i)
  done;
  Buffer.add_string buf "</div></body></html>";
  Buffer.contents buf

let run_xq b src = Xqib.Page.run_xquery b b.B.top_window src

(* ------------------------------------------------------------------ *)
(* F1 — pipeline latency breakdown (Fig. 1)                            *)

let bench_f1 () =
  section "F1" "plug-in pipeline (Fig. 1): parse page / compile / run / dispatch";
  Printf.printf "%-10s %14s %14s %14s %14s %14s\n" "page size" "parse+DOM"
    "compile" "run main" "dispatch" "render";
  List.iter
    (fun n ->
      let html = wide_page n in
      let parse = ns_per_run (fun () -> ignore (Sys.opaque_identity (Dom.of_string html))) in
      let script =
        "declare updating function local:l($evt, $obj) { insert node <hit/> into //div[@id='root'] }; \
         on event \"onclick\" at (//item)[1] attach listener local:l"
      in
      let compile =
        ns_per_run (fun () ->
            ignore
              (Sys.opaque_identity
                 (Xquery.Parser.parse_program (Xquery.Engine.default_static ()) script)))
      in
      let run_main =
        ns_per_run ~quota:1.0 (fun () ->
            let b = B.create () in
            Xqib.Page.load b html;
            ignore (Sys.opaque_identity (run_xq b script)))
      in
      (* one prepared page, repeated dispatch: the listener loop *)
      let b = B.create () in
      Xqib.Page.load b html;
      ignore (run_xq b script);
      let target = List.hd (Dom.get_elements_by_local_name (B.document b) "item") in
      let dispatch = ns_per_run (fun () -> B.dispatch b ~target "onclick") in
      let render =
        ns_per_run (fun () ->
            ignore (Sys.opaque_identity (Xqib.Renderer.render (B.document b))))
      in
      Printf.printf "%-10d %14s %14s %14s %14s %14s\n" n (pretty_ns parse)
        (pretty_ns compile) (pretty_ns run_main) (pretty_ns dispatch)
        (pretty_ns render))
    (if smoke_enabled () then [ 10 ] else [ 10; 100; 1000 ])

(* ------------------------------------------------------------------ *)
(* F2 — server offload (Fig. 2)                                        *)

let bench_f2 () =
  section "F2" "Reference 2.0 offload (Fig. 2): server-side vs migrated+cache";
  Printf.printf "%-10s | %-28s | %-28s\n" "" "server-side rendering" "migrated + client cache";
  Printf.printf "%-10s | %8s %9s %8s | %8s %9s %8s\n" "requests" "evals" "reqs"
    "time(s)" "evals" "reqs" "time(s)";
  List.iter
    (fun n ->
      let server_side () =
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let e = Scenarios.make_elsevier http in
        Http_sim.reset_stats http;
        for _ = 1 to n do
          let b = B.create ~clock ~http () in
          Xqib.Page.browse b
            ("http://" ^ AS.host e.Scenarios.server ^ e.Scenarios.browse_page_path)
        done;
        ( AS.evaluations e.Scenarios.server,
          Http_sim.request_count http ~host:(AS.host e.Scenarios.server),
          Virtual_clock.now clock )
      in
      let client_side () =
        let clock = Virtual_clock.create () in
        let http = Http_sim.create clock in
        let e = Scenarios.make_elsevier http in
        Http_sim.reset_stats http;
        let b = B.create ~cache:true ~clock ~http () in
        Xqib.Page.browse b
          ("http://" ^ AS.host e.Scenarios.server ^ e.Scenarios.client_page_path);
        B.run b;
        for _ = 2 to n do
          ignore
            (run_xq b
               "count(rest:get('http://www.elsevier.example/docs/archive.xml')//article)")
        done;
        ( AS.evaluations e.Scenarios.server,
          Http_sim.request_count http ~host:(AS.host e.Scenarios.server),
          Virtual_clock.now clock )
      in
      let se, sr, st = server_side () in
      let ce, cr, ct = client_side () in
      Printf.printf "%-10d | %8d %9d %8.3f | %8d %9d %8.3f\n" n se sr st ce cr ct)
    (if smoke_enabled () then [ 1; 5 ] else [ 1; 5; 20; 50 ]);
  print_endline
    "\nshape check: server evaluations grow linearly server-side and stay at 0\n\
     when migrated; requests collapse to page+document with the client cache."

(* ------------------------------------------------------------------ *)
(* F3 — co-existence (Fig. 3)                                          *)

let bench_f3 () =
  section "F3" "JS/XQuery co-existence (Fig. 3): both languages on one event";
  let page_js_only =
    {|<html><head><script type="text/javascript">
      function h(e) { e.target.setAttribute("js", "1"); }
      document.getElementById("b").addEventListener("onclick", h, false);
      </script></head><body><button id="b"/></body></html>|}
  in
  let page_xq_only =
    {|<html><head><script type="text/xquery">
      declare updating function local:h($evt, $obj) {
        if ($obj/@xq) then replace value of node $obj/@xq with "1"
        else insert node attribute xq { "1" } into $obj
      };
      on event "onclick" at //button attach listener local:h
      </script></head><body><button id="b"/></body></html>|}
  in
  let page_both =
    {|<html><head><script type="text/javascript">
      function h(e) { e.target.setAttribute("js", "1"); }
      document.getElementById("b").addEventListener("onclick", h, false);
      </script><script type="text/xquery">
      declare updating function local:h($evt, $obj) {
        if ($obj/@xq) then replace value of node $obj/@xq with "1"
        else insert node attribute xq { "1" } into $obj
      };
      on event "onclick" at //button attach listener local:h
      </script></head><body><button id="b"/></body></html>|}
  in
  let dispatch_cost page =
    let b = B.create () in
    Xqib.Page.load b page;
    let btn = Option.get (Dom.get_element_by_id (B.document b) "b") in
    ns_per_run (fun () -> B.dispatch b ~target:btn "onclick")
  in
  Printf.printf "%-26s %14s\n" "handlers on the event" "dispatch cost";
  Printf.printf "%-26s %14s\n" "JavaScript only" (pretty_ns (dispatch_cost page_js_only));
  Printf.printf "%-26s %14s\n" "XQuery only" (pretty_ns (dispatch_cost page_xq_only));
  Printf.printf "%-26s %14s\n" "both (the mash-up case)" (pretty_ns (dispatch_cost page_both));
  (* semantics: both handlers really run on one click *)
  let b = B.create () in
  Xqib.Page.load b page_both;
  let btn = Option.get (Dom.get_element_by_id (B.document b) "b") in
  B.click b btn;
  Printf.printf "both handlers observed one click: js=%s xq=%s\n"
    (Option.value ~default:"-" (Dom.attribute_local btn "js"))
    (Option.value ~default:"-" (Dom.attribute_local btn "xq"))

(* ------------------------------------------------------------------ *)
(* T1 — lines of code (§6.3)                                           *)

let bench_t1 () =
  section "T1" "lines of code (§6.3): one language vs the technology jungle";
  let rows =
    [
      ( "shopping cart",
        Scenarios.loc Scenarios.shop_jsp_template,
        "JSP+SQL+JS+XPath",
        Scenarios.loc Scenarios.shop_xquery_page );
      ( "multiplication table",
        Scenarios.loc (Scenarios.mult_table_js_page 9),
        "JavaScript",
        Scenarios.loc (Scenarios.mult_table_xquery_page 9) );
    ]
  in
  Printf.printf "%-22s %22s %8s %8s %7s\n" "application" "baseline stack" "LoC"
    "XQuery" "ratio";
  List.iter
    (fun (name, base_loc, stack, xq_loc) ->
      Printf.printf "%-22s %22s %8d %8d %6.1fx\n" name stack base_loc xq_loc
        (float_of_int base_loc /. float_of_int xq_loc))
    rows;
  print_endline
    "\nshape check: the paper reports 77 JS vs 29 XQuery lines (2.7x) for its\n\
     multiplication-table demo; the XQuery versions here stay ~2-3x smaller."

(* ------------------------------------------------------------------ *)
(* T2 — XQuery vs JavaScript performance (§7 future work)              *)

let bench_t2 () =
  section "T2" "XQuery vs JavaScript in the browser (§7): navigation / update / events";
  let r = report "BENCH_T2.json" in
  let record ~name ~n ~js ~xq =
    entry r (name ^ "/js") n js;
    entry r ~speedup:(js /. xq) (name ^ "/xquery") n xq
  in
  Printf.printf "%-8s %-22s %14s %14s\n" "n" "operation" "JavaScript" "XQuery";
  List.iter
    (fun n ->
      let page = wide_page n in
      (* navigation: count elements of class 'even' *)
      let bj = browser_with ~page () in
      let js_nav =
        ns_per_run (fun () ->
            ignore
              (Sys.opaque_identity
                 (Minijs.Js_interp.eval_in_window bj bj.B.top_window
                    "document.evaluate(\"//item[@class='even']\", document, null, \
                     XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null).snapshotLength")))
      in
      let bx = browser_with ~page () in
      let xq_nav =
        ns_per_run (fun () ->
            ignore (Sys.opaque_identity (run_xq bx "count(//item[@class='even'])")))
      in
      record ~name:"navigation" ~n ~js:js_nav ~xq:xq_nav;
      Printf.printf "%-8d %-22s %14s %14s\n" n "DOM navigation" (pretty_ns js_nav)
        (pretty_ns xq_nav);
      (* update: append k elements, then remove them, so that every
         run sees the same n-item page (an updating query's writes
         apply when it ends, so XQuery removes them in a second one) *)
      let k = 50 in
      let bj = browser_with ~page () in
      Minijs.Js_interp.run_script bj bj.B.top_window
        "var root = document.getElementById('root');\n\
         function addSome(k) { for (var i = 0; i < k; i++) {\n\
           var el = document.createElement('extra');\n\
           el.appendChild(document.createTextNode('x'));\n\
           root.appendChild(el); } }\n\
         function dropSome(k) { for (var i = 0; i < k; i++) root.removeChild(root.lastChild); }";
      let js_upd =
        ns_per_run (fun () ->
            Minijs.Js_interp.run_script bj bj.B.top_window
              (Printf.sprintf "addSome(%d); dropSome(%d);" k k))
      in
      let bx = browser_with ~page () in
      ignore
        (run_xq bx
           "declare updating function local:add($k) { \
              insert nodes (for $i in 1 to $k return <extra>x</extra>) \
              into //div[@id='root'] }; \
            declare updating function local:drop() { delete nodes //extra }; 0");
      let xq_upd =
        ns_per_run (fun () ->
            ignore (run_xq bx (Printf.sprintf "local:add(%d)" k));
            ignore (run_xq bx "local:drop()"))
      in
      record ~name:"update" ~n ~js:js_upd ~xq:xq_upd;
      Printf.printf "%-8d %-22s %14s %14s\n" n
        (Printf.sprintf "DOM update (+%d)" k)
        (pretty_ns js_upd) (pretty_ns xq_upd);
      (* events: listener on the container, dispatch from a leaf; each
         event carries a fresh [seq] that both listeners read, so
         incremental dispatch cannot skip the XQuery one *)
      let dispatch b target =
        let seq = ref 0 in
        fun () ->
          incr seq;
          B.dispatch b ~detail:[ ("seq", string_of_int !seq) ] ~target "ping"
      in
      let bj = browser_with ~page () in
      Minijs.Js_interp.run_script bj bj.B.top_window
        "var sum = 0;\n\
         document.getElementById('root').addEventListener('ping', function(e) { sum += e.seq; }, false);";
      let jst = List.hd (Dom.get_elements_by_local_name (B.document bj) "item") in
      let js_evt = ns_per_run (dispatch bj jst) in
      let bx = browser_with ~page () in
      ignore
        (run_xq bx
           "declare function local:read($evt, $obj) { number($evt/seq) }; \
            on event \"ping\" at //div[@id='root'] attach listener local:read");
      let xst = List.hd (Dom.get_elements_by_local_name (B.document bx) "item") in
      let xq_evt = ns_per_run (dispatch bx xst) in
      record ~name:"event-dispatch" ~n ~js:js_evt ~xq:xq_evt;
      Printf.printf "%-8d %-22s %14s %14s\n" n "event dispatch (bubble)"
        (pretty_ns js_evt) (pretty_ns xq_evt))
    (if smoke_enabled () then [ 100 ] else [ 100; 1000; 10000 ]);
  write r

(* ------------------------------------------------------------------ *)
(* T3 — window security (§4.2.1)                                       *)

let bench_t3 () =
  section "T3" "window-tree security (§4.2.1): semantics and overhead";
  let make_browser policy frames foreign =
    let b = B.create ~policy ~href:"http://app.example/" () in
    Xqib.Page.load b "<html><body/></html>";
    for i = 1 to frames do
      Xqib.Windows.add_frame ~parent:b.B.top_window
        (Xqib.Windows.create
           ~name:(Printf.sprintf "frame%d" i)
           ~href:
             (if i <= foreign then Printf.sprintf "http://evil%d.example/" i
              else "http://app.example/sub")
           ())
    done;
    b
  in
  Printf.printf "%-22s %10s %10s\n" "setup (10 frames)" "same-org" "allow-all";
  List.iter
    (fun foreign ->
      let count policy =
        let b = make_browser policy 10 foreign in
        Xdm_item.to_display_string
          (run_xq b "count(browser:top()//window[@name])")
      in
      Printf.printf "%-22s %10s %10s\n"
        (Printf.sprintf "%d cross-origin" foreign)
        (count Xqib.Origin.Same_origin)
        (count Xqib.Origin.Allow_all))
    [ 0; 5; 10 ];
  let cost policy =
    let b = make_browser policy 10 5 in
    ns_per_run (fun () ->
        ignore (Sys.opaque_identity (run_xq b "count(browser:top()//window)")))
  in
  Printf.printf "\nmaterialization cost: same-origin=%s allow-all=%s\n"
    (pretty_ns (cost Xqib.Origin.Same_origin))
    (pretty_ns (cost Xqib.Origin.Allow_all));
  let b = make_browser Xqib.Origin.Same_origin 2 0 in
  ignore (run_xq b "replace value of node browser:top()/frames/window[1]/status with 'hi'");
  Printf.printf "same-origin frame status write-back: %S\n"
    (List.hd b.B.top_window.Xqib.Windows.frames).Xqib.Windows.status

(* ------------------------------------------------------------------ *)
(* T4 — async behind vs synchronous (§4.4)                             *)

let bench_t4 () =
  section "T4" "AJAX suggest (§4.4): UI-blocked time, sync vs `behind`";
  Printf.printf "%-14s %12s %12s %14s\n" "latency (ms)" "sync UI(s)" "async UI(s)"
    "async total(s)";
  List.iter
    (fun latency_ms ->
      let latency = { Http_sim.base = float_of_int latency_ms /. 1000.; per_kb = 0. } in
      let keystrokes = "albert" in
      let sync_blocked () =
        let clock = Virtual_clock.create () in
        let http = Http_sim.create ~latency clock in
        ignore (Scenarios.setup_suggest http);
        let b = B.create ~clock ~http () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:hint($evt, $obj) {
              replace value of node //*[@id="txtHint"]
              with string-join(rest:get(concat("http://hints.example/suggest?q=",
                                               string($obj/@value)))//hint/text(), ", ")
            };
            on event "onkeyup" at //input attach listener local:hint
            </script></head><body><input id="t" value=""/><span id="txtHint"/></body></html>|};
        let input = Option.get (Dom.get_element_by_id (B.document b) "t") in
        B.type_text b input keystrokes;
        b.B.ui_blocked
      in
      let async_blocked, async_total =
        let clock = Virtual_clock.create () in
        let http = Http_sim.create ~latency clock in
        let page = Scenarios.setup_suggest http in
        let b = B.create ~clock ~http () in
        Xqib.Page.load b page;
        let input = Option.get (Dom.get_element_by_id (B.document b) "text1") in
        B.type_text b input keystrokes;
        B.run b;
        (b.B.ui_blocked, Virtual_clock.now clock)
      in
      Printf.printf "%-14d %12.3f %12.3f %14.3f\n" latency_ms (sync_blocked ())
        async_blocked async_total)
    [ 10; 50; 200 ];
  print_endline
    "\nshape check: synchronous calls block the UI linearly in service latency;\n\
     `behind` keeps UI-blocked time at ~0 while the work happens off-thread."

(* ------------------------------------------------------------------ *)
(* T5 — ablations (§5.1)                                               *)

let bench_t5 () =
  section "T5" "ablations (§5.1): syntax extension vs HOF fallback; optimizer";
  let page = wide_page (if smoke_enabled () then 50 else 200) in
  let reg_cost src =
    ns_per_run ~quota:1.0 (fun () ->
        let b = B.create () in
        Xqib.Page.load b page;
        ignore (run_xq b src))
  in
  let syntax_src =
    "declare function local:h($evt, $obj) { () }; \
     on event \"ping\" at //item attach listener local:h"
  in
  let hof_src =
    "declare function local:h($evt, $obj) { () }; \
     browser:addEventListener(//item, \"ping\", \"local:h\")"
  in
  Printf.printf "event registration on 200 nodes:\n";
  Printf.printf "  proposed syntax (on event ... attach)    %14s\n"
    (pretty_ns (reg_cost syntax_src));
  Printf.printf "  HOF fallback (browser:addEventListener)  %14s\n"
    (pretty_ns (reg_cost hof_src));
  let style_syntax = "set style \"color\" of //item to \"red\"" in
  let style_hof = "browser:setStyle(//item, \"color\", \"red\")" in
  Printf.printf "style manipulation on 200 nodes:\n";
  Printf.printf "  proposed syntax (set style ... to)       %14s\n"
    (pretty_ns (reg_cost style_syntax));
  Printf.printf "  HOF fallback (browser:setStyle)          %14s\n"
    (pretty_ns (reg_cost style_hof));
  (* optimizer ablation *)
  let doc = Dom.of_string (wide_page (if smoke_enabled () then 200 else 2000)) in
  let query =
    "count(//item[@class='even'][true()]) + (if (count(//item) > 0) then 1 else 0)"
  in
  let eval_with opt =
    let compiled =
      Xquery.Engine.compile ~optimize:opt ~static:(Xquery.Engine.default_static ()) query
    in
    ns_per_run (fun () ->
        ignore
          (Sys.opaque_identity
             (Xquery.Engine.run ~context_item:(Xdm_item.Node doc) compiled)))
  in
  Printf.printf "optimizer ablation (query over 2000 items):\n";
  Printf.printf "  rewrites off                             %14s\n" (pretty_ns (eval_with false));
  Printf.printf "  rewrites on                              %14s\n" (pretty_ns (eval_with true))

(* ------------------------------------------------------------------ *)
(* T6 — embedded XPath vs native XQuery (§2.2)                         *)

let bench_t6 () =
  section "T6" "XPath embedded in JavaScript vs native XQuery (§2.2)";
  let r = report "BENCH_T6.json" in
  Printf.printf "%-8s %22s %22s\n" "divs" "JS document.evaluate" "native XQuery path";
  List.iter
    (fun n ->
      let buf = Buffer.create (n * 24) in
      Buffer.add_string buf "<html><body>";
      for i = 1 to n do
        Buffer.add_string buf
          (Printf.sprintf "<div>%s %d</div>"
             (if i mod 10 = 0 then "all you need is love" else "filler text")
             i)
      done;
      Buffer.add_string buf "</body></html>";
      let page = Buffer.contents buf in
      let bj = browser_with ~page () in
      let js =
        ns_per_run (fun () ->
            ignore
              (Sys.opaque_identity
                 (Minijs.Js_interp.eval_in_window bj bj.B.top_window
                    "document.evaluate(\"//div[contains(., 'love')]\", document, null, \
                     XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null).snapshotLength")))
      in
      let bx = browser_with ~page () in
      let xq =
        ns_per_run (fun () ->
            ignore (Sys.opaque_identity (run_xq bx "count(//div[contains(., 'love')])")))
      in
      entry r "contains-path/js" n js;
      entry r ~speedup:(js /. xq) "contains-path/xquery" n xq;
      Printf.printf "%-8d %22s %22s\n" n (pretty_ns js) (pretty_ns xq))
    (if smoke_enabled () then [ 100 ] else [ 100; 1000; 5000 ]);
  write r;
  print_endline
    "\nshape check: both run on the same engine underneath; the JS path adds\n\
     interpreter and API-marshalling overhead on top (the paper's motivation\n\
     for using XQuery directly rather than embedding XPath strings in JS)."

(* ------------------------------------------------------------------ *)
(* T7 — fault injection (flaky network)                                 *)

let bench_t7 () =
  section "T7" "flaky network (§6.1): retry+backoff+cache fallback vs baseline";
  let seed = 42 in
  Printf.printf
    "(20 visits per cell, seed %d; virtual-time metrics, deterministic)\n" seed;
  Printf.printf "%-5s %-9s | %5s %5s %5s %6s %8s | %7s %8s %5s\n" "rate"
    "client" "pgOK" "qryOK" "lost" "reqs" "time(s)" "retries" "fallback"
    "inj";
  List.iter
    (fun rate ->
      List.iter
        (fun resilient ->
          let r = Scenarios.run_elsevier_flaky ~rate ~seed ~resilient () in
          Printf.printf "%-5.2f %-9s | %5d %5d %5d %6d %8.2f | %7d %8d %5d\n"
            rate
            (if resilient then "resilient" else "baseline")
            r.Scenarios.pages_ok r.Scenarios.queries_ok
            (r.Scenarios.pages_lost + r.Scenarios.queries_failed)
            r.Scenarios.server_requests r.Scenarios.elapsed
            r.Scenarios.retries r.Scenarios.fallback_hits
            r.Scenarios.injected_faults)
        [ false; true ])
    (if smoke_enabled () then [ 0.0; 0.3 ] else [ 0.0; 0.1; 0.3; 0.5; 0.7 ]);
  print_endline
    "\nshape check: at rate 0 both columns are identical (zero-cost when\n\
     disabled); as the rate grows the baseline loses visits while the\n\
     resilient client completes them all, paying retries + backoff time."

(* ------------------------------------------------------------------ *)
(* the all-on default, copied; each spec's slow side switches fields off *)
let on = { Ablation.current with acceleration = true }
let show_doc b = Dom.serialize (B.document b)

(* ------------------------------------------------------------------ *)
(* T8 — DOM acceleration layer: order keys + indexes vs naive          *)

(* Two-level document (~sqrt n sections of ~sqrt n items each): child
   lists stay moderately wide so the naive path comparison pays its
   child-index scans without making the naive cells unmeasurably slow. *)
let t8_sections n = max 1 (int_of_float (ceil (sqrt (float_of_int n))))

let t8_doc n =
  let secs = t8_sections n in
  let per = (n + secs - 1) / secs in
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf "<html><body><div id=\"root\">";
  let k = ref 0 in
  for s = 1 to secs do
    Buffer.add_string buf (Printf.sprintf "<sec id=\"s%d\">" s);
    for _ = 1 to per do
      if !k < n then begin
        incr k;
        Buffer.add_string buf (Printf.sprintf "<item id=\"i%d\">v%d</item>" !k !k)
      end
    done;
    Buffer.add_string buf "</sec>"
  done;
  Buffer.add_string buf "</div></body></html>";
  Dom.of_string (Buffer.contents buf)

(* The smoke bar sits below what n = 64 reads (doc-order 8-24x,
   following/preceding 5.5-7x, and 2.4-2.9x while a leading // still
   scanned every node): at that size the naive path comparison has
   little to walk. *)
let t8 =
  let order reversed =
    Thunk
      ( (fun _ doc ->
          let all = Dom.descendants doc in
          let seq = Xdm_item.of_nodes (if reversed then List.rev all else all) in
          fun () -> Xdm_item.document_order seq),
        Xdm_item.to_display_string )
  in
  let around axis =
    Query
      (fun n ->
        Printf.sprintf "count(//sec[@id='s%d']/%s::item)" (max 1 (t8_sections n / 2)) axis)
  in
  let by_id =
    Thunk
      ( (fun n doc ->
          let id = Printf.sprintf "i%d" n in
          fun () -> Dom.get_element_by_id doc id),
        Option.fold ~none:"" ~some:Dom.serialize )
  in
  {
    id = "T8";
    title = "DOM acceleration: order keys, indexes, axis fast paths vs naive ablation";
    file = "BENCH_T8.json";
    fast = ("accelerated", on);
    slow = ("naive", { on with acceleration = false });
    suffix = "/naive";
    groups =
      [
        group ([ 64 ], [ 100; 1000; 10000 ]) t8_doc
          [
            row Win "doc-order/sorted" (order false);
            row Win "doc-order/reversed" (order true);
            row Win "following" (around "following");
            row Win "preceding" (around "preceding");
            query Shown "descendant-by-name" "count(//item)";
            row Shown "by-id" by_id;
          ];
      ];
    bar = (1.5, 5.);
    wins = 4;
    win_tries = 3;
    aa_bound = 0.10;
    floors = [];
    counted = None;
    note =
      "the accelerated column must win by >=5x at n=10000 on the\n\
       doc-order and following/preceding workloads; both columns compute\n\
       identical results (the ablation switch is the test oracle).";
  }

(* ------------------------------------------------------------------ *)
(* T9 — observability overhead: tracing off vs on; counting is always on *)

(* Reset both registries and force a known tracing state around a
   measurement, so T9 cells cannot leak records into each other. *)
let with_obs tracing f =
  Obs.Trace.set_enabled tracing;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ();
      Obs.Metrics.reset ())
    f

(* minor words 10^5 increments of a registry counter allocate *)
let counter_words () =
  let c = Obs.Metrics.counter "bench.t9.increments" in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Metrics.incr c
  done;
  Gc.minor_words () -. before

let bench_t9 ~check ?trace_file () =
  section "T9" "observability: span hook overhead, off vs on; counter cost";
  let n = if smoke_enabled () then 64 else 1000 in
  let doc = t8_doc n in
  let q = compile "count(//item) + count(//sec) + count(//item[starts-with(@id, 'i1')])" in
  let work () = ignore (Sys.opaque_identity (eval_on doc q)) in
  (* the cheap-to-leave-on claim has three parts: (1) an untraced run
     records no spans, (2) counting an event allocates nothing, (3)
     the residual tracing flag checks are too cheap to measure. (1)
     and (2) are deterministic; assert them outright. *)
  let silent =
    with_obs false (fun () ->
        work ();
        Obs.Trace.roots () = [])
  in
  Printf.printf "untraced run records no spans: %b\n" silent;
  if check && not silent then fail "T9" "untraced run left spans in the sink";
  let words = with_obs false counter_words in
  Printf.printf "minor words for 10^5 counter increments: %.0f\n" words;
  if check && words <> 0. then fail "T9" "counter increments allocate";
  let off = with_obs false (fun () -> ns_per_run work) in
  let on = with_obs true (fun () -> ns_per_run work) in
  Printf.printf "%-28s %14s\n" "observability" "query cost";
  Printf.printf "%-28s %14s\n" "untraced (default)" (pretty_ns off);
  Printf.printf "%-28s %14s\n" "tracing enabled" (pretty_ns on);
  Printf.printf "enabled overhead: %+.1f%%\n" (100. *. ((on /. off) -. 1.));
  let r = report "BENCH_T9.json" in
  entry r "obs-off" n off;
  entry r ~speedup:(off /. on) "obs-on" n on;
  write r;
  if check then
    (* (3) cannot be measured directly — there is no hook-free build to
       compare against — so two untraced runs must agree: whatever the
       guards cost is below the noise floor. The noise of a
       microsecond-scale workload is additive, so the statistic is the
       per-side minimum of five estimates interleaved a,b,a,b,… after
       a warmup run (EXPERIMENTS.md §T9 has the reasoning). *)
    aa "T9" ~name:"untraced" ~bound:0.10 (fun () ->
        Gc.major ();
        let time () = with_obs false (fun () -> ns_per_run work) in
        ignore (time ());
        let samples = List.init 5 (fun _ -> (time (), time ())) in
        let min_of side = List.fold_left (fun m p -> Float.min m (side p)) infinity samples in
        let a = min_of fst and b = min_of snd in
        Float.abs (a -. b) /. Float.min a b);
  match trace_file with
  | None -> ()
  | Some file ->
      with_obs true (fun () ->
          work ();
          let json = Obs.Trace.export_json () in
          (match Obs.Json.validate json with
          | Ok () -> ()
          | Error m -> fail "T9" "malformed trace JSON: %s" m);
          let oc = open_out file in
          output_string oc json;
          close_out oc;
          Printf.printf "traced run written to %s (validated)\n" file)

(* ------------------------------------------------------------------ *)
(* T10 — compiled-query cache: repeated page-load compile cost          *)

(* A page script shaped like real page code: a prolog of function
   declarations plus a small body. Reloading the page re-compiles it
   against a fresh static context every time — the cache's target. *)
let t10_script nfuns =
  let buf = Buffer.create (nfuns * 64) in
  for i = 1 to nfuns do
    Buffer.add_string buf
      (Printf.sprintf
         "declare function local:f%d($x) { if ($x > %d) then $x + %d else local:f%d($x + 1) };\n"
         i i i i)
  done;
  Buffer.add_string buf "local:f1(0)";
  Buffer.contents buf

let bench_t10 ~check () =
  section "T10"
    "compiled-query cache: repeated page-load compile cost, off vs cold vs warm";
  let qc = Xquery.Engine.query_cache in
  let cache query_cache f = Ablation.with_ { on with query_cache } f in
  let compile_cached src () =
    ignore
      (Sys.opaque_identity
         (Xquery.Engine.compile_cached ~static:(Xquery.Engine.default_static ()) src))
  in
  let r = report "BENCH_T10.json" in
  List.iter
    (fun nfuns ->
      let compile_once = compile_cached (t10_script nfuns) in
      let off = cache false (fun () -> ns_per_run compile_once) in
      let cold =
        cache true (fun () ->
            ns_per_run (fun () ->
                Xquery.Query_cache.clear qc;
                compile_once ()))
      in
      let warm =
        cache true (fun () ->
            compile_once ();
            ns_per_run compile_once)
      in
      let speedup = off /. warm in
      header nfuns [ "cache off"; "cold miss"; "warm hit" ];
      line "compile" [ off; cold; warm ] speedup;
      entry r "compile/off" nfuns off;
      entry r "compile/cold" nfuns cold;
      entry r ~speedup "compile/warm" nfuns warm;
      if check then
        at_least "T10" (Printf.sprintf "warm cache speedup (%d decls)" nfuns) speedup 5.)
    (pick ([ 20 ], [ 5; 20; 80 ]));
  (* the end-to-end view: a full page load, script compile included *)
  let nfuns = if smoke_enabled () then 20 else 40 in
  let page =
    Printf.sprintf
      "<html><head><script type=\"text/xquery\">%s</script></head><body><div \
       id=\"root\"/></body></html>"
      (t10_script nfuns)
  in
  let load_page () = B.run (browser_with ~page ()) in
  let load_off = cache false (fun () -> ns_per_run ~quota:1.0 load_page) in
  let load_warm =
    cache true (fun () ->
        load_page ();
        ns_per_run ~quota:1.0 load_page)
  in
  header nfuns [ "cache off"; "warm hit" ];
  line "page-load" [ load_off; load_warm ] (load_off /. load_warm);
  entry r "page-load/off" nfuns load_off;
  entry r ~speedup:(load_off /. load_warm) "page-load/warm" nfuns load_warm;
  write r;
  if check then begin
    (* transparency gate (a): a scenario page must render the same DOM
       with the cache on (twice, so the second load is a hit) and off *)
    let render enabled =
      cache enabled (fun () ->
          let b = browser_with ~page:(Scenarios.mult_table_xquery_page 9) () in
          B.run b;
          show_doc b)
    in
    let renders = List.map render [ false; false; true; true ] in
    if List.exists (( <> ) (List.hd renders)) renders then
      fail "T10" "cache-on render differs from cache-off render";
    (* transparency gate (b): a warm re-compile must hit the cache *)
    let hits =
      cache true (fun () ->
          Xquery.Query_cache.reset_stats qc;
          compile_cached "1 + 1" ();
          compile_cached "1 + 1" ();
          (Xquery.Query_cache.stats qc).Xquery.Query_cache.hits)
    in
    at_least "T10" "warm re-compile cache hits" (float_of_int hits) 1.;
    print_endline "T10 check: cache-on/off renders identical, warm hits observed"
  end

(* ------------------------------------------------------------------ *)
(* T11 — streaming: production's cursors + early exit vs the reference *)

(* a wide flat document with an early witness: @hit='1' only at row
   10, so early-exit consumers stop after a tiny prefix of n *)
let t11_doc n =
  let buf = Buffer.create (n * 48) in
  Buffer.add_string buf "<html><body><div id=\"root\">";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "<row id=\"r%d\" hit=\"%d\">v%d</row>" i
         (if i = 10 then 1 else 0)
         i)
  done;
  Buffer.add_string buf "</div></body></html>";
  Dom.of_string (Buffer.contents buf)

let t11 =
  {
    id = "T11";
    title = "streaming: production's lazy cursors with early exit vs the eager reference";
    file = "BENCH_T11.json";
    fast = ("production", on);
    slow = ("reference", { on with compiled_eval = false });
    suffix = "/eager";
    groups =
      [
        group ([ 200 ], [ 1000; 10000 ]) t11_doc
          [
            (* early-exit consumers: the streamed prefix is O(1) in n *)
            query Win "first-item" "(//row)[1]";
            query Win "exists-hit" "exists(//row[@hit='1'])";
            query Win "quantifier" "some $x in //row satisfies $x/@hit = '1'";
            query Win "take-10" "(//row)[position() le 10]";
            query Win "bounded-count" "count(//row) > 5";
            query Win "subsequence-10" "subsequence(//row, 1, 10)";
            (* every item is consumed, so streaming has nothing to skip
               and production must not regress *)
            query Aa "aa/count-all" "count(//row)";
            query Aa "aa/string-join" "string-join(//row/@id, ',')";
          ];
      ];
    bar = (5., 10.);
    wins = 2;
    win_tries = 1;
    aa_bound = 0.10;
    floors = [];
    counted = None;
    note =
      "early-exit queries cost O(1) in n in production, which\n\
       streams, and O(n) in the eager reference; the A/A rows consume\n\
       everything and production must not lose. Both columns compute\n\
       identical results (the reference is the test oracle).";
  }

(* ------------------------------------------------------------------ *)
(* T12 — value indexes + join planner: hash join vs nested loop        *)

(* a shopping cart of [t12_items] line items against an n-product
   catalog (paper §6.3): the nested-loop join is O(items·n), the
   planned hash join O(items + n), and a sku point lookup is an O(n)
   scan vs an O(1) hash-bucket probe once the per-root value index is
   built (the first run builds it, later runs amortise it away) *)
let t12_items = 100

let t12_doc n =
  let buf = Buffer.create ((n + t12_items) * 56) in
  Buffer.add_string buf "<html><body><cart>";
  for i = 1 to t12_items do
    Buffer.add_string buf
      (Printf.sprintf "<item sku=\"s%d\" qty=\"%d\"/>"
         (1 + (i * 37 mod n))
         (i mod 5))
  done;
  Buffer.add_string buf "</cart><catalog>";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "<product sku=\"s%d\" cat=\"c%d\" price=\"%d\"/>" i
         (i mod 13) (i mod 97))
  done;
  Buffer.add_string buf "</catalog></body></html>";
  Dom.of_string (Buffer.contents buf)

let t12_join =
  "for $c in //cart/item, $p in //catalog/product \
   where $c/@sku eq $p/@sku return concat($c/@sku, ':', $p/@price)"

let t12_lookup = "count(//product[@sku eq 's123'])"
let no_index = { on with value_index = false }

let t12 =
  {
    id = "T12";
    title = "value indexes + join-aware planner vs nested-loop ablation";
    file = "BENCH_T12.json";
    fast = ("accelerated", on);
    (* the join rows ablate the planner, the lookup rows the index *)
    slow = ("baseline", { on with join_planning = false });
    suffix = "/baseline";
    groups =
      [
        group ([ 200 ], [ 1000; 10000 ]) t12_doc
          [
            query Win "join-eq" t12_join;
            query Win "join-general"
              "for $c in //cart/item, $p in //catalog/product \
               where $c/@sku = $p/@sku and $c/@qty = '1' return $p/@price";
            query ~slow:no_index Win "lookup-sku" t12_lookup;
            (* a 1-in-13 bucket: the win is bounded by the selectivity *)
            query ~slow:no_index Shown "lookup-cat" "count(//product[@cat eq 'c7'])";
            (* a FLWOR the planner must leave alone (position variable) *)
            query Aa_only "planner/no-join-flwor"
              "for $c at $i in //cart/item where $c/@qty = '1' return $i";
            (* a path with no value predicate: the index has nothing to serve *)
            query ~slow:no_index Aa_only "vidx/non-indexable"
              "string-join(//cart/item/@sku, ',')";
          ];
      ];
    bar = (5., 10.);
    wins = 2;
    win_tries = 1;
    aa_bound = 0.10;
    (* one build table, a probe per cart item and an index hit prove
       the fast paths executed *)
    floors =
      [
        ("join-hash-builds", "xquery.join.hash_builds", 1);
        ("join-probes", "xquery.join.probes", t12_items);
        ("value-index-hits", "dom.value_index.hits", 1);
      ];
    counted =
      Some
        ( 500,
          fun () ->
            let doc = t12_doc 500 in
            List.iter (fun src -> ignore (eval_on doc (compile src))) [ t12_join; t12_lookup ] );
    note =
      "the hash join is O(items + n) against the nested\n\
       loop's O(items*n), and the sku lookup probes one hash bucket\n\
       instead of scanning the catalog. Both columns compute identical\n\
       results (the ablation switch is the test oracle).";
  }

(* ------------------------------------------------------------------ *)
(* T13 — closure compiler: production vs the tree-walking reference     *)

(* n rows with small numeric attributes. The compiled wins come from
   queries that touch every row and do per-row casts and arithmetic:
   full-materialisation shapes where the interpreter's per-AST-node
   dispatch and assoc-list variable lookups dominate, and the closure
   IR's direct calls over a pre-sized frame array do not. *)
let t13_doc n =
  let buf = Buffer.create (n * 40) in
  Buffer.add_string buf "<html><body><data>";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "<row a=\"%d\" b=\"%d\">%d</row>" i (i mod 97) (i * 3))
  done;
  Buffer.add_string buf "</data></body></html>";
  Dom.of_string (Buffer.contents buf)

(* per-event listener dispatch (Fig. 1 loop): the listener body is
   compiled to a closure and invoked through
   Dynamic_context.compiled_fns at dispatch time. Each mode gets its
   own browser, loaded and dispatched under its own variant — the
   compiled-fns table is installed at context-build time. *)
let t13_dispatch =
  Thunk
    ( (fun n () ->
        let b = browser_with ~page:(wide_page n) () in
        ignore
          (run_xq b
             "declare function local:on($evt, $obj) { sum(for $x in //item return \
              string-length($x/@id) + string-length($x/@class) * 2) }; on event \
              \"ping\" at (//item)[1] attach listener local:on");
        let target = List.hd (Dom.get_elements_by_local_name (B.document b) "item") in
        fun () ->
          B.dispatch b ~target "ping";
          b),
      show_doc )

let t13 =
  {
    id = "T13";
    title = "closure compiler: production closures vs the tree-walking reference";
    file = "BENCH_T13.json";
    fast = ("production", on);
    slow = ("reference", { on with compiled_eval = false });
    suffix = "/interpreted";
    groups =
      [
        group ([ 200 ], [ 1000; 10000 ]) t13_doc
          [
            query Win "flwor-arith"
              "sum(for $x in //row return xs:integer($x/@a) * 2 + xs:integer($x/@b))";
            query Win "where-filter"
              "count(for $x in //row where xs:integer($x/@b) mod 7 eq 3 return $x)";
            row Win "sum-range"
              (Query (Printf.sprintf "sum(for $i in 1 to %d return $i * 3 + ($i mod 7))"));
            (* an order-by FLWOR whose cost is the sort both evaluators
               share ({!Xquery.Eval.sort_keyed}) *)
            query Aa "aa-orderby" "count(for $x in //row order by xs:integer($x/@b) return $x)";
          ];
        group ([ 100 ], [ 2000 ]) ignore [ row Shown "event-dispatch" t13_dispatch ];
      ];
    bar = (1.5, 3.);
    wins = 2;
    win_tries = 1;
    aa_bound = 0.10;
    (* programs and functions compiled and closure nodes emitted prove
       the closure path executed *)
    floors =
      [
        ("programs", "xquery.compile.programs", 1);
        ("functions", "xquery.compile.fns", 1);
        ("closure-nodes", "xquery.compile.nodes", 1);
      ];
    counted = None;
    note =
      "both columns compute identical results (the reference\n\
       is the test oracle); the production column runs closure\n\
       compositions over a frame array, the reference column walks the\n\
       optimized AST re-resolving every variable by name.";
  }

(* ------------------------------------------------------------------ *)
(* Widget pages (T14, T16): [regions] divs of [vals_per] leaves each,
   one listener registration per div (so [regions] memos). One event
   writes [c mod 4] into the leaves [writes] picks, in one batched
   changeset like a PUL apply, then dispatches "tick" to every div. *)

(* n leaves = regions × leaves per region *)
let widgets n = List.assoc n [ (200, (20, 10)); (3000, (60, 50)); (10000, (100, 100)) ]

(* [listener] declares local:w; [extra] precedes the divs; [leaf j]
   names a region's j-th leaf, whose value is j mod 4 *)
let widget_page ~listener ~extra ~leaf ~regions ~vals_per =
  let buf = Buffer.create (regions * vals_per * 32) in
  Buffer.add_string buf {|<html><head><script type="text/xquery">|};
  Buffer.add_string buf listener;
  Buffer.add_string buf
    {| on event "tick" at //div attach listener local:w</script></head><body>|};
  Buffer.add_string buf extra;
  for r = 0 to regions - 1 do
    Buffer.add_string buf (Printf.sprintf {|<div id="r%d">|} r);
    for j = 1 to vals_per do
      Buffer.add_string buf (Printf.sprintf "<%s>%d</%s>" (leaf j) (j mod 4) (leaf j))
    done;
    Buffer.add_string buf "</div>"
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let widget_events b ~regions writes =
  let doc = B.document b in
  let divs =
    Array.init regions (fun r ->
        Option.get (Dom.get_element_by_id doc (Printf.sprintf "r%d" r)))
  in
  let pick = writes doc divs in
  let c = ref 0 in
  fun () ->
    incr c;
    Dom.with_batch (fun () ->
        List.iter (fun v -> Dom.set_value v (string_of_int (!c mod 4))) (pick !c));
    Array.iter (fun d -> B.dispatch b ~target:d "tick") divs

(* the first [tag] leaf of every region each event, or of one region
   in turn *)
let region_firsts ~all tag _doc divs =
  let firsts = Array.map (fun d -> List.hd (Dom.get_elements_by_local_name d tag)) divs in
  let every = Array.to_list firsts in
  if all then fun _ -> every else fun c -> [ firsts.(c mod Array.length firsts) ]

(* a row whose run is one event on a freshly loaded page, after one
   event has warmed every memo *)
let widget_row page writes =
  Thunk
    ( (fun _ (regions, vals_per) ->
        let b = browser_with ~page:(page ~regions ~vals_per) () in
        let ev = widget_events b ~regions writes in
        ev ();
        fun () ->
          ev ();
          b),
      show_doc )

(* ------------------------------------------------------------------ *)
(* T14 — incremental recomputation: footprint-tracked listener dispatch *)

(* A 1/[regions] mutation footprint: incremental dispatch re-runs the
   one intersecting listener and skips the rest; the ablation re-runs
   all of them. *)
let t14_page ~updating ~regions ~vals_per =
  widget_page ~extra:"" ~leaf:(fun _ -> "val") ~regions ~vals_per
    ~listener:
      (if updating then
         (* conditionally updating: pure (and skippable) until a region's
            sum crosses the threshold, then it writes a marker. Initial
            sums are ~1.5*vals_per and event mutations keep values in
            0..3, so only a deliberate push (all 9s: 9*vals_per) crosses *)
         Printf.sprintf
           "declare updating function local:w($evt, $obj) { if \
            (sum($obj//val) gt %d and count($obj/over) eq 0) then insert node \
            <over/> into $obj else () };"
           (5 * vals_per)
       else "declare function local:w($evt, $obj) { sum($obj//val) };")

let t14_row ~updating ~all = widget_row (t14_page ~updating) (region_firsts ~all "val")

let t14 =
  {
    id = "T14";
    title = "incremental recomputation: footprint-tracked listeners vs re-run-all";
    file = "BENCH_T14.json";
    fast = ("incremental", on);
    slow = ("re-run-all", { on with incremental = false });
    suffix = "/full";
    groups =
      [
        group ([ 200 ], [ 10000 ]) widgets
          [
            row Win "pure-agg" (t14_row ~updating:false ~all:false);
            row Shown "cond-write" (t14_row ~updating:true ~all:false);
            (* every region dirtied every event: incremental dispatch
               re-runs everything and pays only its bookkeeping
               (footprint recording, one intersection per commit) *)
            row Aa_only "full-footprint" (t14_row ~updating:false ~all:true);
          ];
      ];
    (* the smoke bar sits low like T13's: on 200-node smoke pages the
       per-dispatch fixed costs (event construction, fingerprinting)
       dilute the skip win that the 10k-node run shows in full *)
    bar = (1.5, 10.);
    wins = 1;
    win_tries = 1;
    aa_bound = 0.20;
    floors = [];
    counted = None;
    note =
      "incremental dispatch re-runs the one listener whose\n\
       footprint the event touched; both modes leave identical documents.";
  }

let bench_t14 ~check () =
  let n = pick (200, 10000) in
  let regions, vals_per = widgets n in
  let stream ~updating k =
    let b = browser_with ~page:(t14_page ~updating ~regions ~vals_per) () in
    let ev = widget_events b ~regions (region_firsts ~all:false "val") in
    for _ = 1 to k do
      ev ()
    done;
    (b, ev)
  in
  (* correctness first: an identical event sequence through both modes —
     including conditionally-updating listeners that cross their
     threshold mid-sequence — must leave identical final documents *)
  let equivalence _ =
    List.iter
      (fun updating ->
        let final incremental =
          Ablation.with_ { on with incremental } (fun () ->
              let b, ev = stream ~updating (3 * regions) in
              (* push region 0 over the conditional threshold, then keep
                 the event stream going: the conditional write must fire
                 (and fire once) in both modes *)
              let r0 = Option.get (Dom.get_element_by_id (B.document b) "r0") in
              List.iter (fun v -> Dom.set_value v "9") (Dom.get_elements_by_local_name r0 "val");
              for _ = 1 to regions do
                ev ()
              done;
              show_doc b)
        in
        if final true <> final false then
          fail "T14" "incremental diverges from full re-evaluation (updating=%b)" updating)
      [ false; true ];
    Printf.printf "equivalence: incremental == full on %d-node pages\n\n" n
  in
  (* counters prove dispatches were skipped, not run and discarded:
     with one region dirtied per event, skips:reruns is regions - 1 *)
  let skips r =
    let count k = Obs.Metrics.(value (counter k)) in
    let _, ev = stream ~updating:false 1 in
    let s0 = count "reactive.skip" in
    let r0 = count "reactive.rerun" in
    for _ = 1 to 10 * regions do
      ev ()
    done;
    let ratio =
      float_of_int (count "reactive.skip" - s0)
      /. float_of_int (max 1 (count "reactive.rerun" - r0))
    in
    Printf.printf "skip/rerun ratio during pure-agg: %.1f\n" ratio;
    entry r "counters/skip-ratio" n ratio;
    if check then at_least "T14" "skip/rerun ratio" ratio (pick (5., 10.))
  in
  Table.run ~before:equivalence ~after:skips ~check t14

(* ------------------------------------------------------------------ *)
(* T15 — fleet-scale virtual-time simulation: N concurrent sessions
   against one app server with a priced request queue. The
   server-rendered workload pays one evaluation per visit and queues up
   as the fleet grows; the migrated (F2) workload only fetches cheap
   static artifacts, so its tail latency stays flat. All numbers are
   virtual-time and deterministic per seed. *)

let bench_t15 ~check () =
  section "T15"
    "fleet simulation: server-rendered vs migrated tail latency under load";
  let sizes = pick ([ 8; 24 ], [ 100; 400; 1600 ]) in
  let seed = 11 in
  (* fixed arrival window: the offered load grows linearly with the
     fleet while the server's capacity (1/service_cost pages per
     virtual second) stays put, so larger fleets overload it *)
  let cell ?shed_depth ?(rate = 0.) ?(spread = 1.) ~sessions ~migrated ~seed () =
    Scenarios.run_fleet ~visits:3 ~think:1. ~service_cost:0.05 ~spread ?shed_depth
      ~rate ~sessions ~migrated ~seed ()
  in
  Printf.printf
    "(3 visits/session over a 1 s arrival window, page cost 0.05 virtual s,\n\
    \ static cost 0.005; latencies in virtual seconds; seed %d)\n"
    seed;
  Printf.printf "%-6s %-9s | %6s %6s | %8s %8s %8s | %6s %8s\n" "fleet" "mode"
    "pgOK" "evals" "p50" "p99" "p999" "depth" "pages/s";
  let r = report "BENCH_T15.json" in
  let fleets =
    List.map
      (fun sessions ->
        (sessions, cell ~sessions ~migrated:false ~seed (), cell ~sessions ~migrated:true ~seed ()))
      sizes
  in
  List.iter
    (fun (sessions, server, migrated) ->
      List.iter
        (fun (mode, f, speedup) ->
          Printf.printf "%-6d %-9s | %6d %6d | %8.3f %8.3f %8.3f | %6d %8.1f\n"
            sessions mode f.Fleet.pages_ok f.Fleet.server_evals f.Fleet.p50
            f.Fleet.p99 f.Fleet.p999 f.Fleet.max_queue_depth
            f.Fleet.pages_per_sec;
          (* ns_per_op carries the p99 (in ns) so the JSON schema stays
             the same as every other bench file *)
          entry r ?speedup (Printf.sprintf "fleet%d/%s" sessions mode) sessions
            (f.Fleet.p99 *. 1e9))
        [
          ("server", server, None);
          ("migrated", migrated, Some (server.Fleet.p99 /. migrated.Fleet.p99));
        ])
    fleets;
  print_endline
    "\nshape check: the server-rendered p99 climbs with the fleet size while\n\
     the migrated workload's stays near its raw fetch cost.";
  write r;
  if check then begin
    let largest, server, migrated = List.hd (List.rev fleets) in
    (* gate (a): determinism — the same seed reproduces the whole
       report (latency percentiles, shed counts, per-session totals)
       bit for bit, across two different seeds *)
    List.iter
      (fun seed ->
        let go () =
          cell ~sessions:(List.hd sizes) ~rate:0.2 ~shed_depth:6
            ~migrated:false ~seed ()
        in
        if go () <> go () then fail "T15" "same-seed fleets diverge (seed %d)" seed)
      [ seed; seed + 12 ];
    (* gate (b): admission control — under a burst arrival the server
       sheds rather than queue, and the backlog never exceeds the
       configured threshold *)
    let depth = 4 in
    let shed =
      cell ~sessions:largest ~spread:0.05 ~shed_depth:depth ~migrated:false
        ~seed ()
    in
    if shed.Fleet.sheds = 0 then fail "T15" "burst at depth %d shed no load" depth;
    if shed.Fleet.max_queue_depth > depth then
      fail "T15" "queue depth %d exceeds shed threshold %d"
        shed.Fleet.max_queue_depth depth;
    (* gate (c): the paper's offload claim at fleet scale — migrating
       the page work into the browsers strictly beats rendering on the
       server at the largest fleet's p99 *)
    if not (migrated.Fleet.p99 < server.Fleet.p99) then
      fail "T15" "migrated p99 %.3fs not below server-rendered %.3fs at fleet %d"
        migrated.Fleet.p99 server.Fleet.p99 largest;
    if migrated.Fleet.server_evals <> 0 then
      fail "T15" "migrated fleet still evaluated %d pages server-side"
        migrated.Fleet.server_evals;
    print_endline
      "T15 check: deterministic, shedding bounds the queue, migration \
       flattens the p99"
  end

(* ------------------------------------------------------------------ *)
(* T16 — global name interning: symbol fast paths vs string compares.

   The intern table and the symbol keying of every index are always
   on (interning is a bijection, so both modes agree on every key);
   the ablation gates only the comparison fast paths — Qname
   equality and the evaluator's choice of symbol- vs string-keyed
   probe entry points. Element names share a long common prefix so
   the ablated String.equal pays for most of the length before it
   can decide; the interned compare is two ints regardless. *)

let t16_prefix = String.make 96 'x'
let t16_name tag = t16_prefix ^ "-" ^ tag

(* The name-scan workloads use names sharing a long common prefix: the
   ablated comparison walks the prefix on every candidate — matching
   or not — while the interned one compares two ints. The parse and
   dispatch workloads keep the moderate 96-char names above. *)
let t16_scan_prefix = String.make 1024 'y'
let t16_scan_name tag = t16_scan_prefix ^ "-" ^ tag

let t16_xml ?(name = t16_name) n =
  let buf = Buffer.create (n * 220) in
  Buffer.add_string buf (Printf.sprintf "<%s>" (name "root"));
  for i = 1 to n do
    let tag = name (if i mod 2 = 0 then "even" else "odd") in
    Buffer.add_string buf
      (Printf.sprintf "<%s k=\"%d\">%d</%s>" tag (i mod 16) i tag)
  done;
  Buffer.add_string buf (Printf.sprintf "</%s>" (name "root"));
  Buffer.contents buf

(* widgets plus one <spare> sibling no listener attaches to or reads:
   mutating it is the always-miss dispatch workload, where the
   per-listener cost is exactly the footprint intersection. *)
let t16_page =
  widget_page ~extra:"<spare>0</spare>"
    ~leaf:(fun j -> t16_name (if j mod 2 = 0 then "va" else "vb"))
    ~listener:
      (Printf.sprintf
         "declare function local:w($evt, $obj) { count($obj//%s) + count($obj//%s) * 2 };"
         (t16_name "va") (t16_name "vb"))

let t16 =
  let spare doc _ =
    let s = Dom.get_elements_by_local_name doc "spare" in
    fun _ -> s
  in
  {
    id = "T16";
    title = "name interning: symbol fast paths vs string comparison";
    file = "BENCH_T16.json";
    fast = ("interned", on);
    slow = ("ablated", { on with interning = false });
    suffix = "/ablated";
    groups =
      [
        (* parse: both modes intern (the table is not ablatable), so
           the columns document an A/A tie *)
        group ([ 1000 ], [ 10000 ]) (fun n -> t16_xml n)
          [ row Shown "parse-dom" (Thunk ((fun _ xml () -> Dom.of_string xml), Dom.serialize)) ];
        (* name-test scans: child axis tests every sibling, descendant
           axis refines a local-name index bucket — both pay one Qname
           comparison per candidate, and the shared 1 KiB prefix makes
           the ablated comparison walk the whole name every time *)
        group ([ 2000 ], [ 20000 ])
          (fun n -> Dom.of_string (t16_xml ~name:t16_scan_name n))
          [
            query Win "child-name-scan"
              (Printf.sprintf "count(/%s/%s)" (t16_scan_name "root") (t16_scan_name "even"));
            query Win "desc-name-scan" (Printf.sprintf "count(//%s)" (t16_scan_name "even"));
          ];
        (* listener dispatch: rerun-all re-runs name-heavy bodies under
           each mode; always-miss isolates the footprint intersection,
           which is symbol-keyed int hashing in BOTH modes and must tie *)
        group ([ 200 ], [ 3000 ]) widgets
          [
            row Shown "dispatch-rerun"
              (widget_row t16_page (region_firsts ~all:true (t16_name "vb")));
            row Aa "dispatch-miss" (widget_row t16_page spare);
          ];
      ];
    (* the per-candidate win is tens of ns, so smoke quotas are noisy:
       the scan gate re-measures *)
    bar = (1.3, 1.3);
    wins = 1;
    win_tries = 3;
    aa_bound = 0.10;
    floors = [];
    counted = None;
    note =
      "the interned column compares two ints per name test where\n\
       the ablated one walks the shared prefix; parsing and the always-miss\n\
       dispatch, which both modes share, tie.";
  }

let bench_t16 ~check () =
  (* the parser memoizes per document and the table dedups globally:
     re-parsing the same document must intern nothing *)
  let reparse _ =
    let xml = t16_xml (pick (1000, 10000)) in
    let size0 = Xmlb.Sym.size () in
    ignore (Sys.opaque_identity (Dom.of_string xml));
    let size1 = Xmlb.Sym.size () in
    ignore (Sys.opaque_identity (Dom.of_string xml));
    let size2 = Xmlb.Sym.size () in
    Printf.printf "sym table: %d distinct names after parse (+%d), re-parse added %d\n"
      size1 (size1 - size0) (size2 - size1);
    if check && size2 <> size1 then
      fail "T16" "re-parse grew the intern table by %d" (size2 - size1)
  in
  let sym r =
    let stats = Xmlb.Sym.stats () in
    let stat k = List.assoc k stats in
    Printf.printf "\nsym counters: size=%d bytes=%d hits=%d misses=%d\n" (stat "size")
      (stat "bytes") (stat "hits") (stat "misses");
    entry r "sym/size" (stat "size") (float_of_int (stat "size"));
    entry r "sym/bytes" (stat "size") (float_of_int (stat "bytes"))
  in
  Table.run ~before:reparse ~after:sym ~check t16

let () =
  let only = ref [] in
  let check = ref false in
  let trace_file = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--smoke" :: rest ->
        set_smoke true;
        parse_args rest
    | "--only" :: ids :: rest ->
        only := String.split_on_char ',' (String.lowercase_ascii ids);
        parse_args rest
    | "--check" :: rest ->
        check := true;
        parse_args rest
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse_args rest
    | arg :: _ ->
        Printf.eprintf
          "usage: main.exe [--smoke] [--only f1,t2,...] [--check] [--trace FILE]; got %S\n"
          arg;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let check = !check in
  let run id f = if !only = [] || List.mem id !only then f () in
  let table spec = run (String.lowercase_ascii spec.id) (fun () -> Table.run ~check spec) in
  print_endline "XQuery in the Browser — benchmark harness";
  print_endline "(virtual-time metrics are deterministic; wall-clock numbers";
  print_endline " are Bechamel OLS estimates on this machine)";
  if smoke_enabled () then print_endline "[smoke mode: tiny sizes and quotas]";
  run "f1" bench_f1;
  run "f2" bench_f2;
  run "f3" bench_f3;
  run "t1" bench_t1;
  run "t2" bench_t2;
  run "t3" bench_t3;
  run "t4" bench_t4;
  run "t5" bench_t5;
  run "t6" bench_t6;
  run "t7" bench_t7;
  table t8;
  run "t9" (bench_t9 ~check ?trace_file:!trace_file);
  run "t10" (bench_t10 ~check);
  table t11;
  table t12;
  table t13;
  run "t14" (bench_t14 ~check);
  run "t15" (bench_t15 ~check);
  run "t16" (bench_t16 ~check);
  print_endline "\ndone."
