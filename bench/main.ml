(* The benchmark harness: regenerates every figure and quantitative
   claim of the paper (see DESIGN.md §3 for the experiment index).

   F1 — Fig. 1  plug-in pipeline latency breakdown
   F2 — Fig. 2  Reference 2.0 server offload (server-side vs migrated)
   F3 — Fig. 3  JS/XQuery co-existence on shared events and DOM
   T1 — §6.3    lines-of-code comparison
   T2 — §7      XQuery vs JavaScript in-browser performance
   T3 — §4.2.1  window-tree security (semantics + overhead)
   T4 — §4.4    async `behind` vs synchronous calls (UI blocking)
   T5 — §5.1    ablations: syntax vs HOF fallback; optimizer on/off
   T6 — §2.2    XPath embedded in JavaScript vs native XQuery
   T7 — §6.1    offload & completion under fault injection (retry/backoff/
                Local_store fallback vs no-resilience baseline)
   T13 — §7     closure compiler vs tree-walking evaluator (and T8–T12,
                see EXPERIMENTS.md for the full index) *)

module B = Xqib.Browser
module AS = Appserver.App_server
module Fleet = Appserver.Fleet
module Ablation = Xmlb.Ablation
open Bench_util

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
  let entries = ref [] in
  let record ~name ~n ~js ~xq =
    entries :=
      json_entry ~name:(name ^ "/xquery") ~n ~speedup:(js /. xq) xq
      :: json_entry ~name:(name ^ "/js") ~n js
      :: !entries
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
      (* update: insert k elements per run *)
      let k = 50 in
      let bj = browser_with ~page () in
      Minijs.Js_interp.run_script bj bj.B.top_window
        "var root = document.getElementById('root');\n\
         function addSome(k) { for (var i = 0; i < k; i++) {\n\
           var el = document.createElement('extra');\n\
           el.appendChild(document.createTextNode('x'));\n\
           root.appendChild(el); } }";
      let js_upd =
        ns_per_run (fun () ->
            Minijs.Js_interp.run_script bj bj.B.top_window "addSome(50);")
      in
      let bx = browser_with ~page () in
      ignore
        (run_xq bx
           "declare updating function local:add($k) { \
              insert nodes (for $i in 1 to $k return <extra>x</extra>) \
              into //div[@id='root'] } ; 0");
      let xq_upd =
        ns_per_run (fun () -> ignore (run_xq bx (Printf.sprintf "local:add(%d)" k)))
      in
      record ~name:"update" ~n ~js:js_upd ~xq:xq_upd;
      Printf.printf "%-8d %-22s %14s %14s\n" n
        (Printf.sprintf "DOM update (+%d)" k)
        (pretty_ns js_upd) (pretty_ns xq_upd);
      (* events: listener on the container, dispatch from a leaf *)
      let bj = browser_with ~page () in
      Minijs.Js_interp.run_script bj bj.B.top_window
        "var hits = 0;\n\
         document.getElementById('root').addEventListener('ping', function(e) { hits++; }, false);";
      let jst = List.hd (Dom.get_elements_by_local_name (B.document bj) "item") in
      let js_evt = ns_per_run (fun () -> B.dispatch bj ~target:jst "ping") in
      let bx = browser_with ~page () in
      ignore
        (run_xq bx
           "declare function local:noop($evt, $obj) { () }; \
            on event \"ping\" at //div[@id='root'] attach listener local:noop");
      let xst = List.hd (Dom.get_elements_by_local_name (B.document bx) "item") in
      let xq_evt = ns_per_run (fun () -> B.dispatch bx ~target:xst "ping") in
      record ~name:"event-dispatch" ~n ~js:js_evt ~xq:xq_evt;
      Printf.printf "%-8d %-22s %14s %14s\n" n "event dispatch (bubble)"
        (pretty_ns js_evt) (pretty_ns xq_evt))
    (if smoke_enabled () then [ 100 ] else [ 100; 1000; 10000 ]);
  write_json ~file:"BENCH_T2.json" (List.rev !entries)

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
  let entries = ref [] in
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
      entries :=
        json_entry ~name:"contains-path/xquery" ~n ~speedup:(js /. xq) xq
        :: json_entry ~name:"contains-path/js" ~n js
        :: !entries;
      Printf.printf "%-8d %22s %22s\n" n (pretty_ns js) (pretty_ns xq))
    (if smoke_enabled () then [ 100 ] else [ 100; 1000; 5000 ]);
  write_json ~file:"BENCH_T6.json" (List.rev !entries);
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

let bench_t8 () =
  section "T8" "DOM acceleration: order keys, indexes, axis fast paths vs naive ablation";
  let entries = ref [] in
  Printf.printf "%-8s %-22s %14s %14s %9s\n" "n" "workload" "accelerated"
    "naive" "speedup";
  let measure ~name ~n f =
    let fast =
      Ablation.with_ { Ablation.current with acceleration = true } (fun () ->
          ns_per_run f)
    in
    let naive =
      Ablation.with_ { Ablation.current with acceleration = false } (fun () ->
          ns_per_run f)
    in
    let speedup = naive /. fast in
    entries :=
      json_entry ~name:(name ^ "/naive") ~n naive
      :: json_entry ~name ~n ~speedup fast
      :: !entries;
    Printf.printf "%-8d %-22s %14s %14s %8.1fx\n" n name (pretty_ns fast)
      (pretty_ns naive) speedup
  in
  List.iter
    (fun n ->
      let doc = t8_doc n in
      let all = Dom.descendants doc in
      let sorted_seq = Xdm_item.of_nodes all in
      let reversed_seq = Xdm_item.of_nodes (List.rev all) in
      let compiled src =
        Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src
      in
      let run q () =
        ignore
          (Sys.opaque_identity
             (Xquery.Engine.run ~context_item:(Xdm_item.Node doc) q))
      in
      let mid = Printf.sprintf "s%d" (max 1 (t8_sections n / 2)) in
      let q_follow =
        compiled (Printf.sprintf "count(//sec[@id='%s']/following::item)" mid)
      in
      let q_preceding =
        compiled (Printf.sprintf "count(//sec[@id='%s']/preceding::item)" mid)
      in
      let q_desc = compiled "count(//item)" in
      let last_id = Printf.sprintf "i%d" n in
      measure ~name:"doc-order/sorted" ~n (fun () ->
          ignore (Sys.opaque_identity (Xdm_item.document_order sorted_seq)));
      measure ~name:"doc-order/reversed" ~n (fun () ->
          ignore (Sys.opaque_identity (Xdm_item.document_order reversed_seq)));
      measure ~name:"following" ~n (run q_follow);
      measure ~name:"preceding" ~n (run q_preceding);
      measure ~name:"descendant-by-name" ~n (run q_desc);
      measure ~name:"by-id" ~n (fun () ->
          ignore (Sys.opaque_identity (Dom.get_element_by_id doc last_id))))
    (if smoke_enabled () then [ 64 ] else [ 100; 1000; 10000 ]);
  write_json ~file:"BENCH_T8.json" (List.rev !entries);
  print_endline
    "\nshape check: the accelerated column must win by >=5x at n=10000 on the\n\
     doc-order and following/preceding workloads; both columns compute\n\
     identical results (the ablation switch is the test oracle)."

(* ------------------------------------------------------------------ *)
(* T9 — observability overhead: tracing off vs on; counting is always on *)

(* Reset both registries and force a known tracing state around a
   measurement, so T9 cells cannot leak records into each other. *)
let with_obs tracing f =
  Obs.Trace.set_enabled tracing;
  let finish () =
    Obs.Trace.set_enabled false;
    Obs.Trace.reset ();
    Obs.Metrics.reset ()
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* minor words 10^5 increments of a registry counter allocate *)
let counter_words () =
  let c = Obs.Metrics.counter "bench.t9.increments" in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Metrics.incr c
  done;
  Gc.minor_words () -. before

let bench_t9 ?(check = false) ?trace_file () =
  section "T9" "observability: span hook overhead, off vs on; counter cost";
  let n = if smoke_enabled () then 64 else 1000 in
  let doc = t8_doc n in
  let q =
    Xquery.Engine.compile ~static:(Xquery.Engine.default_static ())
      "count(//item) + count(//sec) + count(//item[starts-with(@id, 'i1')])"
  in
  let work () =
    ignore
      (Sys.opaque_identity (Xquery.Engine.run ~context_item:(Xdm_item.Node doc) q))
  in
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
  if check && not silent then begin
    prerr_endline "T9 FAIL: untraced run left spans in the sink";
    exit 1
  end;
  let words = with_obs false counter_words in
  Printf.printf "minor words for 10^5 counter increments: %.0f\n" words;
  if check && words <> 0. then begin
    prerr_endline "T9 FAIL: counter increments allocate";
    exit 1
  end;
  let off = with_obs false (fun () -> ns_per_run work) in
  let on = with_obs true (fun () -> ns_per_run work) in
  Printf.printf "%-28s %14s\n" "observability" "query cost";
  Printf.printf "%-28s %14s\n" "untraced (default)" (pretty_ns off);
  Printf.printf "%-28s %14s\n" "tracing enabled" (pretty_ns on);
  Printf.printf "enabled overhead: %+.1f%%\n" (100. *. ((on /. off) -. 1.));
  write_json ~file:"BENCH_T9.json"
    [
      json_entry ~name:"obs-off" ~n off;
      json_entry ~name:"obs-on" ~n ~speedup:(off /. on) on;
    ];
  if check then begin
    (* (2) cannot be measured directly — there is no hook-free build to
       compare against — so gate on an A/A test instead: two untraced
       runs must agree, i.e. whatever the guards cost is below the
       measurement noise floor. The workload is microsecond-scale, so
       every noise source here is additive — a GC major slice, a
       preempted CPU slice, or a throttled clock only ever makes an
       estimate slower, never faster. The robust statistic for purely
       additive noise is the minimum, not the mean or median: take
       five estimates per side, interleaved a,b,a,b,... so slow drift
       (frequency ramp-up, thermal) hits both sides alike, discard a
       warmup run for the cold-start transient, and compare the
       per-side minima — the fastest clean window each side achieved.
       The residual bar is 10%, the same bar every other A/A gate in
       this suite uses (T11–T13): tighter bars sit below the noise
       floor of the 0.05 s smoke sampling budget on shared hosts and
       fail for identical binaries. Retried to absorb runs where even
       the minima catch no clean window. See EXPERIMENTS.md §T9. *)
    let rec aa tries =
      Gc.major ();
      ignore (with_obs false (fun () -> ns_per_run work));
      let samples = ref [] in
      for _ = 1 to 5 do
        let a = with_obs false (fun () -> ns_per_run work) in
        let b = with_obs false (fun () -> ns_per_run work) in
        samples := (a, b) :: !samples
      done;
      let min_of side =
        List.fold_left (fun m p -> Float.min m (side p)) infinity !samples
      in
      let a = min_of fst and b = min_of snd in
      let delta = Float.abs (a -. b) /. Float.min a b in
      Printf.printf "A/A untraced delta (try %d): %.2f%%\n" tries (100. *. delta);
      if delta <= 0.10 then ()
      else if tries >= 3 then begin
        prerr_endline "T9 FAIL: untraced A/A delta above 10% after 3 tries";
        exit 1
      end
      else aa (tries + 1)
    in
    aa 1
  end;
  match trace_file with
  | None -> ()
  | Some file ->
      with_obs true (fun () ->
          work ();
          let json = Obs.Trace.export_json () in
          (match Obs.Json.validate json with
          | Ok () -> ()
          | Error m ->
              Printf.eprintf "T9 FAIL: malformed trace JSON: %s\n" m;
              exit 1);
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

let bench_t10 ?(check = false) () =
  section "T10"
    "compiled-query cache: repeated page-load compile cost, off vs cold vs warm";
  let qc = Xquery.Engine.query_cache in
  let entries = ref [] in
  Printf.printf "%-8s %14s %14s %14s %9s\n" "decls" "cache off" "cold miss"
    "warm hit" "speedup";
  List.iter
    (fun nfuns ->
      let src = t10_script nfuns in
      let compile_once () =
        ignore
          (Sys.opaque_identity
             (Xquery.Engine.compile_cached
                ~static:(Xquery.Engine.default_static ())
                src))
      in
      let off =
        Ablation.with_ { Ablation.current with query_cache = false } (fun () ->
            ns_per_run compile_once)
      in
      let cold =
        Ablation.with_ { Ablation.current with query_cache = true } (fun () ->
            ns_per_run (fun () ->
                Xquery.Query_cache.clear qc;
                compile_once ()))
      in
      let warm =
        Ablation.with_ { Ablation.current with query_cache = true } (fun () ->
            compile_once ();
            ns_per_run compile_once)
      in
      let speedup = off /. warm in
      entries :=
        json_entry ~name:"compile/warm" ~n:nfuns ~speedup warm
        :: json_entry ~name:"compile/cold" ~n:nfuns cold
        :: json_entry ~name:"compile/off" ~n:nfuns off
        :: !entries;
      Printf.printf "%-8d %14s %14s %14s %8.1fx\n" nfuns (pretty_ns off)
        (pretty_ns cold) (pretty_ns warm) speedup;
      if check && not (speedup >= 5.) then begin
        Printf.eprintf
          "T10 FAIL: warm cache speedup %.1fx below the 5x floor (%d decls)\n"
          speedup nfuns;
        exit 1
      end)
    (if smoke_enabled () then [ 20 ] else [ 5; 20; 80 ]);
  (* the end-to-end view: a full page load, script compile included *)
  let nfuns = if smoke_enabled () then 20 else 40 in
  let page =
    Printf.sprintf
      "<html><head><script type=\"text/xquery\">%s</script></head><body><div \
       id=\"root\"/></body></html>"
      (t10_script nfuns)
  in
  let load_page () =
    let b = B.create () in
    Xqib.Page.load b page;
    B.run b
  in
  let load_off =
    Ablation.with_ { Ablation.current with query_cache = false } (fun () ->
        ns_per_run ~quota:1.0 load_page)
  in
  let load_warm =
    Ablation.with_ { Ablation.current with query_cache = true } (fun () ->
        load_page ();
        ns_per_run ~quota:1.0 load_page)
  in
  entries :=
    json_entry ~name:"page-load/warm" ~n:nfuns ~speedup:(load_off /. load_warm)
      load_warm
    :: json_entry ~name:"page-load/off" ~n:nfuns load_off
    :: !entries;
  Printf.printf "full page load (%d decls): off=%s warm=%s (%.1fx)\n" nfuns
    (pretty_ns load_off) (pretty_ns load_warm) (load_off /. load_warm);
  write_json ~file:"BENCH_T10.json" (List.rev !entries);
  if check then begin
    (* transparency gate (a): a scenario page must render the same DOM
       with the cache on (twice, so the second load is a hit) and off *)
    let render_with enabled =
      Ablation.with_ { Ablation.current with query_cache = enabled } (fun () ->
          let render () =
            let b = B.create () in
            Xqib.Page.load b (Scenarios.mult_table_xquery_page 9);
            B.run b;
            Dom.serialize (B.document b)
          in
          let first = render () in
          let second = render () in
          (first, second))
    in
    let off1, off2 = render_with false in
    let on1, on2 = render_with true in
    if not (off1 = off2 && off1 = on1 && off1 = on2) then begin
      prerr_endline "T10 FAIL: cache-on render differs from cache-off render";
      exit 1
    end;
    (* transparency gate (b): the second cache-on load above and the
       warm measurements must actually have hit the cache *)
    let hit_rate_seen =
      Ablation.with_ { Ablation.current with query_cache = true } (fun () ->
          Xquery.Query_cache.reset_stats qc;
          let compile_twice () =
            ignore
              (Xquery.Engine.compile_cached
                 ~static:(Xquery.Engine.default_static ())
                 "1 + 1")
          in
          compile_twice ();
          compile_twice ();
          (Xquery.Query_cache.stats qc).Xquery.Query_cache.hits
    ) in
    if hit_rate_seen = 0 then begin
      prerr_endline "T10 FAIL: warm re-compile recorded zero cache hits";
      exit 1
    end;
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

let bench_t11 ?(check = false) () =
  section "T11"
    "streaming: production's lazy cursors with early exit vs the eager reference";
  let entries = ref [] in
  (* early-exit consumers: the streamed prefix is O(1) in n *)
  let early_queries =
    [
      ("first-item", "(//row)[1]");
      ("exists-hit", "exists(//row[@hit='1'])");
      ("quantifier", "some $x in //row satisfies $x/@hit = '1'");
      ("take-10", "(//row)[position() le 10]");
      ("bounded-count", "count(//row) > 5");
      ("subsequence-10", "subsequence(//row, 1, 10)");
    ]
  in
  (* A/A workloads: every item is consumed, so streaming has nothing
     to skip and production must not regress against the reference *)
  let aa_queries =
    [
      ("aa/count-all", "count(//row)");
      ("aa/string-join", "string-join(//row/@id, ',')");
    ]
  in
  let sizes = if smoke_enabled () then [ 200 ] else [ 1000; 10000 ] in
  let n_max = List.fold_left max 0 sizes in
  let wins = ref 0 in
  List.iter
    (fun n ->
      let doc = t11_doc n in
      Printf.printf "%-8d %-16s %14s %14s %9s\n" n "query" "production"
        "reference" "speedup";
      let compiled src =
        Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src
      in
      let measure ~name ~gate src =
        let q = compiled src in
        let run () =
          ignore
            (Sys.opaque_identity
               (Xquery.Engine.run ~context_item:(Xdm_item.Node doc) q))
        in
        (* correctness first: the reference evaluator is the oracle *)
        let result enabled =
          Ablation.with_ { Ablation.current with compiled_eval = enabled } (fun () ->
              Xdm_item.to_display_string
                (Xquery.Engine.run ~context_item:(Xdm_item.Node doc) q))
        in
        if result true <> result false then begin
          Printf.eprintf "T11 FAIL: production result differs on %s\n" src;
          exit 1
        end;
        let stream =
          Ablation.with_ { Ablation.current with compiled_eval = true } (fun () -> ns_per_run run)
        in
        let eager =
          Ablation.with_ { Ablation.current with compiled_eval = false } (fun () -> ns_per_run run)
        in
        let speedup = eager /. stream in
        if gate && n = n_max && speedup >= (if smoke_enabled () then 5. else 10.)
        then incr wins;
        entries :=
          json_entry ~name:(name ^ "/eager") ~n eager
          :: json_entry ~name ~n ~speedup stream
          :: !entries;
        Printf.printf "%-8s %-16s %14s %14s %8.1fx\n" "" name
          (pretty_ns stream) (pretty_ns eager) speedup
      in
      List.iter (fun (name, src) -> measure ~name ~gate:true src) early_queries;
      List.iter (fun (name, src) -> measure ~name ~gate:false src) aa_queries)
    sizes;
  write_json ~file:"BENCH_T11.json" (List.rev !entries);
  print_endline
    "\nshape check: early-exit queries cost O(1) in n in production, which\n\
     streams, and O(n) in the eager reference; the A/A rows consume\n\
     everything and production must not lose. Both columns compute\n\
     identical results (the reference is the test oracle).";
  if check then begin
    (* gate (a): enough early-exit workloads clear the speedup bar *)
    if !wins < 2 then begin
      Printf.eprintf
        "T11 FAIL: only %d early-exit queries cleared the speedup bar\n" !wins;
      exit 1
    end;
    (* gate (b): full-materialisation A/A within 10%, retried to absorb
       scheduler hiccups (same policy as T9) *)
    let doc = t11_doc n_max in
    let rec aa tries (name, src) =
      let q =
        Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src
      in
      let run () =
        ignore
          (Sys.opaque_identity
             (Xquery.Engine.run ~context_item:(Xdm_item.Node doc) q))
      in
      let stream =
        Ablation.with_ { Ablation.current with compiled_eval = true } (fun () -> ns_per_run run)
      in
      let eager =
        Ablation.with_ { Ablation.current with compiled_eval = false } (fun () -> ns_per_run run)
      in
      let delta = (stream -. eager) /. eager in
      Printf.printf "A/A %s delta (try %d): %+.1f%%\n" name tries
        (100. *. delta);
      if delta <= 0.10 then ()
      else if tries >= 3 then begin
        Printf.eprintf
          "T11 FAIL: production regresses %s by more than 10%% after 3 tries\n"
          name;
        exit 1
      end
      else aa (tries + 1) (name, src)
    in
    List.iter (aa 1) aa_queries;
    print_endline "T11 check: results identical, speedup bar met, A/A holds"
  end

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

let compile_with_planning planning src =
  Ablation.with_ { Ablation.current with join_planning = planning } (fun () ->
      Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src)

let bench_t12 ?(check = false) () =
  section "T12" "value indexes + join-aware planner vs nested-loop ablation";
  let entries = ref [] in
  let join_queries =
    [
      ( "join-eq",
        "for $c in //cart/item, $p in //catalog/product \
         where $c/@sku eq $p/@sku return concat($c/@sku, ':', $p/@price)" );
      ( "join-general",
        "for $c in //cart/item, $p in //catalog/product \
         where $c/@sku = $p/@sku and $c/@qty = '1' return $p/@price" );
    ]
  in
  (* (name, src, gated): the cat lookup hits a 1-in-13 bucket, so its
     win is bounded by the selectivity and stays ungated *)
  let lookup_queries =
    [
      ("lookup-sku", "count(//product[@sku eq 's123'])", true);
      ("lookup-cat", "count(//product[@cat eq 'c7'])", false);
    ]
  in
  let sizes = if smoke_enabled () then [ 200 ] else [ 1000; 10000 ] in
  let n_max = List.fold_left max 0 sizes in
  let wins = ref 0 in
  List.iter
    (fun n ->
      let doc = t12_doc n in
      let ctx = Xdm_item.Node doc in
      let run_q q () =
        ignore (Sys.opaque_identity (Xquery.Engine.run ~context_item:ctx q))
      in
      let show q =
        Xdm_item.to_display_string (Xquery.Engine.run ~context_item:ctx q)
      in
      Printf.printf "%-8d %-16s %14s %14s %9s\n" n "query" "accelerated"
        "baseline" "speedup";
      let record ~name ~gate fast slow =
        let speedup = slow /. fast in
        if gate && n = n_max && speedup >= (if smoke_enabled () then 5. else 10.)
        then incr wins;
        entries :=
          json_entry ~name:(name ^ "/baseline") ~n slow
          :: json_entry ~name ~n ~speedup fast
          :: !entries;
        Printf.printf "%-8s %-16s %14s %14s %8.1fx\n" "" name (pretty_ns fast)
          (pretty_ns slow) speedup
      in
      let measure_join ~name ~gate src =
        let q_on = compile_with_planning true src in
        let q_off = compile_with_planning false src in
        (* correctness first: the ablation switch is the test oracle *)
        if show q_on <> show q_off then begin
          Printf.eprintf "T12 FAIL: hash-join result differs on %s\n" src;
          exit 1
        end;
        record ~name ~gate (ns_per_run (run_q q_on)) (ns_per_run (run_q q_off))
      in
      let measure_lookup ~name ~gate src =
        let q =
          Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src
        in
        let result enabled =
          Ablation.with_ { Ablation.current with value_index = enabled } (fun () -> show q)
        in
        if result true <> result false then begin
          Printf.eprintf "T12 FAIL: indexed result differs on %s\n" src;
          exit 1
        end;
        record ~name ~gate
          (Ablation.with_ { Ablation.current with value_index = true } (fun () ->
               ns_per_run (run_q q)))
          (Ablation.with_ { Ablation.current with value_index = false } (fun () ->
               ns_per_run (run_q q)))
      in
      List.iter (fun (name, src) -> measure_join ~name ~gate:true src)
        join_queries;
      List.iter (fun (name, src, gate) -> measure_lookup ~name ~gate src)
        lookup_queries)
    sizes;
  (* counters prove the fast paths actually executed: one build table,
     a probe per cart item, and at least one index hit *)
  let counter_n = 500 in
  let ctx = Xdm_item.Node (t12_doc counter_n) in
  Obs.Metrics.reset ();
  let q_join = compile_with_planning true (snd (List.hd join_queries)) in
  ignore (Xquery.Engine.run ~context_item:ctx q_join);
  let q_lookup =
    Xquery.Engine.compile
      ~static:(Xquery.Engine.default_static ())
      "count(//product[@sku eq 's123'])"
  in
  Ablation.with_ { Ablation.current with value_index = true } (fun () ->
      ignore (Xquery.Engine.run ~context_item:ctx q_lookup));
  let count name = Obs.Metrics.(value (counter name)) in
  let builds = count "xquery.join.hash_builds"
  and probes = count "xquery.join.probes"
  and hits = count "dom.value_index.hits" in
  Printf.printf "\ncounters: hash-builds=%d probes=%d value-index-hits=%d\n"
    builds probes hits;
  entries :=
    json_entry ~name:"counters/value-index-hits" ~n:counter_n
      (float_of_int hits)
    :: json_entry ~name:"counters/join-probes" ~n:counter_n
         (float_of_int probes)
    :: json_entry ~name:"counters/join-hash-builds" ~n:counter_n
         (float_of_int builds)
    :: !entries;
  if builds < 1 || probes < t12_items || hits < 1 then begin
    Printf.eprintf "T12 FAIL: counters do not show accelerated execution\n";
    exit 1
  end;
  write_json ~file:"BENCH_T12.json" (List.rev !entries);
  print_endline
    "\nshape check: the hash join is O(items + n) against the nested\n\
     loop's O(items*n), and the sku lookup probes one hash bucket\n\
     instead of scanning the catalog. Both columns compute identical\n\
     results (the ablation switch is the test oracle).";
  if check then begin
    (* gate (a): enough accelerated workloads clear the speedup bar *)
    if !wins < 2 then begin
      Printf.eprintf
        "T12 FAIL: only %d accelerated queries cleared the speedup bar\n"
        !wins;
      exit 1
    end;
    (* gate (b): A/A parity — workloads the planner and index cannot
       help must not regress, retried to absorb scheduler hiccups *)
    let ctx = Xdm_item.Node (t12_doc n_max) in
    let run_q q () =
      ignore (Sys.opaque_identity (Xquery.Engine.run ~context_item:ctx q))
    in
    let rec aa tries (name, time_on, time_off) =
      let on = time_on () and off = time_off () in
      let delta = (on -. off) /. off in
      Printf.printf "A/A %s delta (try %d): %+.1f%%\n" name tries
        (100. *. delta);
      if delta <= 0.10 then ()
      else if tries >= 3 then begin
        Printf.eprintf
          "T12 FAIL: acceleration regresses %s by more than 10%% after 3 \
           tries\n"
          name;
        exit 1
      end
      else aa (tries + 1) (name, time_on, time_off)
    in
    (* a FLWOR the planner must leave alone (position variable) *)
    let no_join_src =
      "for $c at $i in //cart/item where $c/@qty = '1' return $i"
    in
    let q_on = compile_with_planning true no_join_src in
    let q_off = compile_with_planning false no_join_src in
    (* a path with no value predicate: the index has nothing to serve *)
    let q_scan =
      Xquery.Engine.compile
        ~static:(Xquery.Engine.default_static ())
        "string-join(//cart/item/@sku, ',')"
    in
    List.iter (aa 1)
      [
        ( "planner/no-join-flwor",
          (fun () -> ns_per_run (run_q q_on)),
          fun () -> ns_per_run (run_q q_off) );
        ( "vidx/non-indexable",
          (fun () ->
            Ablation.with_ { Ablation.current with value_index = true } (fun () ->
                ns_per_run (run_q q_scan))),
          fun () ->
            Ablation.with_ { Ablation.current with value_index = false } (fun () ->
                ns_per_run (run_q q_scan))
        );
      ];
    print_endline "T12 check: results identical, speedup bar met, A/A ties"
  end

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

let compile_with_compiled compiled src =
  Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
      Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src)

let bench_t13 ?(check = false) () =
  section "T13" "closure compiler: production closures vs the tree-walking reference";
  let entries = ref [] in
  (* (name, src n, gated): gated queries must clear the speedup bar at
     n_max. The ungated row is an order-by FLWOR whose cost is the sort
     both evaluators share ({!Xquery.Eval.sort_keyed}): it is the A/A,
     where production must not lose, rather than a win. *)
  let queries =
    [
      ( "flwor-arith",
        (fun _ ->
          "sum(for $x in //row return xs:integer($x/@a) * 2 + \
           xs:integer($x/@b))"),
        true );
      ( "where-filter",
        (fun _ ->
          "count(for $x in //row where xs:integer($x/@b) mod 7 eq 3 return \
           $x)"),
        true );
      ( "sum-range",
        (fun n ->
          Printf.sprintf "sum(for $i in 1 to %d return $i * 3 + ($i mod 7))" n),
        true );
      ( "aa-orderby",
        (fun _ ->
          "count(for $x in //row order by xs:integer($x/@b) return $x)"),
        false );
    ]
  in
  let sizes = if smoke_enabled () then [ 200 ] else [ 1000; 10000 ] in
  let n_max = List.fold_left max 0 sizes in
  let wins = ref 0 in
  List.iter
    (fun n ->
      let doc = t13_doc n in
      let ctx = Xdm_item.Node doc in
      let run_q q () =
        ignore (Sys.opaque_identity (Xquery.Engine.run ~context_item:ctx q))
      in
      let show q =
        Xdm_item.to_display_string (Xquery.Engine.run ~context_item:ctx q)
      in
      Printf.printf "%-8d %-16s %14s %14s %9s\n" n "query" "production"
        "reference" "speedup";
      let measure ~name ~gate src =
        let q_c = compile_with_compiled true src in
        let q_i = compile_with_compiled false src in
        (* correctness first: the reference evaluator is the oracle *)
        if
          Ablation.with_ { Ablation.current with compiled_eval = true } (fun () -> show q_c)
          <> Ablation.with_ { Ablation.current with compiled_eval = false } (fun () -> show q_i)
        then begin
          Printf.eprintf "T13 FAIL: compiled result differs on %s\n" src;
          exit 1
        end;
        let fast =
          Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
              ns_per_run (run_q q_c))
        in
        let slow =
          Ablation.with_ { Ablation.current with compiled_eval = false } (fun () ->
              ns_per_run (run_q q_i))
        in
        let speedup = slow /. fast in
        if gate && n = n_max && speedup >= (if smoke_enabled () then 1.5 else 3.)
        then incr wins;
        entries :=
          json_entry ~name:(name ^ "/interpreted") ~n slow
          :: json_entry ~name ~n ~speedup fast
          :: !entries;
        Printf.printf "%-8s %-16s %14s %14s %8.1fx\n" "" name (pretty_ns fast)
          (pretty_ns slow) speedup
      in
      List.iter (fun (name, src, gate) -> measure ~name ~gate (src n)) queries)
    sizes;
  (* per-event listener dispatch (Fig. 1 loop): the listener body is
     compiled to a closure and invoked through
     Dynamic_context.compiled_fns at dispatch time. Each mode gets its
     own browser, loaded and dispatched under its own flag — the
     compiled-fns table is installed at context-build time. *)
  let ln = if smoke_enabled () then 100 else 2000 in
  let listener_script =
    "declare function local:on($evt, $obj) { sum(for $x in //item return \
     string-length($x/@id) + string-length($x/@class) * 2) }; on event \
     \"ping\" at (//item)[1] attach listener local:on"
  in
  let dispatch_cost compiled =
    Ablation.with_ { Ablation.current with compiled_eval = compiled } (fun () ->
        let b = browser_with ~page:(wide_page ln) () in
        ignore (run_xq b listener_script);
        let target =
          List.hd (Dom.get_elements_by_local_name (B.document b) "item")
        in
        ns_per_run (fun () -> B.dispatch b ~target "ping"))
  in
  let d_fast = dispatch_cost true in
  let d_slow = dispatch_cost false in
  Printf.printf "%-8d %-16s %14s %14s %8.1fx\n" ln "event-dispatch"
    (pretty_ns d_fast) (pretty_ns d_slow) (d_slow /. d_fast);
  entries :=
    json_entry ~name:"event-dispatch/interpreted" ~n:ln d_slow
    :: json_entry ~name:"event-dispatch" ~n:ln ~speedup:(d_slow /. d_fast)
         d_fast
    :: !entries;
  (* counters prove the closure path actually executed: programs and
     functions compiled, closure nodes emitted *)
  let stats = Xquery.Compile.stats () in
  let stat k = try List.assoc k stats with Not_found -> 0 in
  Printf.printf
    "\ncounters: programs=%d fns=%d closure-nodes=%d opaque-nodes=%d\n"
    (stat "programs") (stat "functions") (stat "nodes") (stat "opaque-nodes");
  entries :=
    json_entry ~name:"counters/closure-nodes" ~n:n_max
      (float_of_int (stat "nodes"))
    :: json_entry ~name:"counters/functions" ~n:n_max
         (float_of_int (stat "functions"))
    :: json_entry ~name:"counters/programs" ~n:n_max
         (float_of_int (stat "programs"))
    :: !entries;
  if stat "programs" < 1 || stat "functions" < 1 || stat "nodes" < 1 then begin
    Printf.eprintf "T13 FAIL: compile counters do not show compiled execution\n";
    exit 1
  end;
  write_json ~file:"BENCH_T13.json" (List.rev !entries);
  print_endline
    "\nshape check: both columns compute identical results (the reference\n\
     is the test oracle); the production column runs closure\n\
     compositions over a frame array, the reference column walks the\n\
     optimized AST re-resolving every variable by name.";
  if check then begin
    (* gate (a): enough compiled workloads clear the speedup bar *)
    if !wins < 2 then begin
      Printf.eprintf
        "T13 FAIL: only %d compiled queries cleared the speedup bar\n" !wins;
      exit 1
    end;
    (* gate (b): A/A parity — an order-by FLWOR, whose cost is the sort
       both evaluators share, must not regress in production, retried
       to absorb scheduler hiccups *)
    let ctx = Xdm_item.Node (t13_doc n_max) in
    let run_q q () =
      ignore (Sys.opaque_identity (Xquery.Engine.run ~context_item:ctx q))
    in
    let rec aa tries (name, src) =
      let q_c = compile_with_compiled true src in
      let q_i = compile_with_compiled false src in
      let on =
        Ablation.with_ { Ablation.current with compiled_eval = true } (fun () ->
            ns_per_run (run_q q_c))
      in
      let off =
        Ablation.with_ { Ablation.current with compiled_eval = false } (fun () ->
            ns_per_run (run_q q_i))
      in
      let delta = (on -. off) /. off in
      Printf.printf "A/A %s delta (try %d): %+.1f%%\n" name tries
        (100. *. delta);
      if delta <= 0.10 then ()
      else if tries >= 3 then begin
        Printf.eprintf
          "T13 FAIL: compiled eval regresses %s by more than 10%% after 3 \
           tries\n"
          name;
        exit 1
      end
      else aa (tries + 1) (name, src)
    in
    List.iter (aa 1)
      [
        ( "orderby",
          "count(for $x in //row order by xs:integer($x/@b) return $x)" );
      ];
    print_endline "T13 check: results identical, speedup bar met, A/A holds"
  end

(* ------------------------------------------------------------------ *)
(* T14 — incremental recomputation: footprint-tracked listener dispatch *)

(* A page of [regions] independent widgets, each a div of [vals_per]
   <val> leaves, with one listener registration per div (so [regions]
   memos). One "event" = mutate the first <val> of one region, then
   dispatch "tick" to every region — a 1/[regions] mutation footprint.
   Incremental dispatch re-runs the one intersecting listener and skips
   the rest; the ablation re-runs all of them. *)
let t14_page ~regions ~vals_per ~updating =
  let buf = Buffer.create (regions * vals_per * 16) in
  Buffer.add_string buf {|<html><head><script type="text/xquery">|};
  Buffer.add_string buf
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
     else "declare function local:w($evt, $obj) { sum($obj//val) };");
  Buffer.add_string buf
    {| on event "tick" at //div attach listener local:w</script></head><body>|};
  for r = 0 to regions - 1 do
    Buffer.add_string buf (Printf.sprintf {|<div id="r%d">|} r);
    for j = 1 to vals_per do
      Buffer.add_string buf (Printf.sprintf "<val>%d</val>" (j mod 4))
    done;
    Buffer.add_string buf "</div>"
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let bench_t14 ?(check = false) () =
  section "T14"
    "incremental recomputation: footprint-tracked listeners vs re-run-all";
  let regions = if smoke_enabled () then 20 else 100 in
  let vals_per = if smoke_enabled () then 10 else 100 in
  let entries = ref [] in
  let n_nodes = regions * vals_per in
  (* build a browser under the given flag: disabling incremental
     invalidates every memo recorded so far, so each mode gets its own
     page *)
  let setup ~updating () =
    let b = browser_with ~page:(t14_page ~regions ~vals_per ~updating) () in
    let doc = B.document b in
    let divs =
      Array.init regions (fun r ->
          Option.get (Dom.get_element_by_id doc (Printf.sprintf "r%d" r)))
    in
    let vals =
      Array.map
        (fun d -> List.hd (Dom.get_elements_by_local_name d "val"))
        divs
    in
    (b, divs, vals)
  in
  (* one event: mutate one region (or all, for the A/A row), dispatch
     everywhere. Values stay single digits so the conditional writer's
     threshold only matters to the equivalence check below. *)
  let event ~all (b, divs, vals) =
    let c = ref 0 in
    fun () ->
      incr c;
      (* one batched changeset per event, like a PUL apply *)
      Dom.with_batch (fun () ->
          if all then
            Array.iter
              (fun v -> Dom.set_value v (string_of_int (!c mod 4)))
              vals
          else Dom.set_value vals.(!c mod regions) (string_of_int (!c mod 4)));
      Array.iter (fun d -> B.dispatch b ~target:d "tick") divs
  in
  (* correctness first: the ablation switch is the test oracle. Drive
     an identical deterministic event sequence through both modes —
     including conditionally-updating listeners that cross their
     threshold mid-sequence — and require identical final documents. *)
  let final_doc ~incremental ~updating =
    Ablation.with_ { Ablation.current with incremental } (fun () ->
        let ((b, divs, _) as st) = setup ~updating () in
        let ev = event ~all:false st in
        for _ = 1 to 3 * regions do
          ev ()
        done;
        (* push region 0 over the conditional threshold, then keep the
           event stream going: the conditional write must fire (and fire
           once) in both modes *)
        List.iter
          (fun v -> Dom.set_value v "9")
          (Dom.get_elements_by_local_name (Array.get divs 0) "val");
        for _ = 1 to regions do
          ev ()
        done;
        Dom.serialize (B.document b))
  in
  List.iter
    (fun updating ->
      let inc = final_doc ~incremental:true ~updating in
      let full = final_doc ~incremental:false ~updating in
      if not (String.equal inc full) then begin
        Printf.eprintf
          "T14 FAIL: incremental diverges from full re-evaluation \
           (updating=%b)\n"
          updating;
        exit 1
      end)
    [ false; true ];
  Printf.printf "equivalence: incremental == full on %d-node pages\n\n" n_nodes;
  Printf.printf "%-8d %-18s %14s %14s %9s\n" n_nodes "workload" "incremental"
    "re-run-all" "speedup";
  let skip_ratio = ref 0. in
  let measure ~name ~all ~updating =
    let time ~incremental =
      Ablation.with_ { Ablation.current with incremental } (fun () ->
          let st = setup ~updating () in
          let ev = event ~all st in
          ev ();
          (* warm every memo *)
          let s0 = Xquery.Reactive.counter_stats () in
          let ns = ns_per_run ev in
          (ns, s0, Xquery.Reactive.counter_stats ()))
    in
    let fast, s0, s1 = time ~incremental:true in
    let slow, _, _ = time ~incremental:false in
    let speedup = slow /. fast in
    let delta k = List.assoc k s1 - List.assoc k s0 in
    (if name = "pure-agg" then
       let reruns = max 1 (delta "reruns") in
       skip_ratio := float_of_int (delta "skips") /. float_of_int reruns);
    Printf.printf "%-8s %-18s %14s %14s %8.1fx\n" "" name (pretty_ns fast)
      (pretty_ns slow) speedup;
    entries :=
      json_entry ~name:(name ^ "/full") ~n:n_nodes slow
      :: json_entry ~name ~n:n_nodes ~speedup fast
      :: !entries;
    speedup
  in
  let pure_speedup = measure ~name:"pure-agg" ~all:false ~updating:false in
  let _ = measure ~name:"cond-write" ~all:false ~updating:true in
  Printf.printf "skip/rerun ratio during pure-agg: %.1f\n" !skip_ratio;
  entries :=
    json_entry ~name:"counters/skip-ratio" ~n:n_nodes !skip_ratio :: !entries;
  write_json ~file:"BENCH_T14.json" (List.rev !entries);
  if check then begin
    (* gate (a): the 1%-footprint workload must clear the speedup bar.
       The smoke bar sits low like T13's: on 200-node smoke pages the
       per-dispatch fixed costs (event construction, fingerprinting)
       dilute the skip win that the 10k-node run shows in full *)
    let bar = if smoke_enabled () then 1.5 else 10. in
    if pure_speedup < bar then begin
      Printf.eprintf "T14 FAIL: pure-agg speedup %.1fx below %.1fx bar\n"
        pure_speedup bar;
      exit 1
    end;
    (* gate (b): counters prove dispatches were skipped, not run and
       discarded — with [regions] listeners and one dirtied per event,
       the skip:rerun ratio is about regions-1 *)
    let ratio_bar = if smoke_enabled () then 5. else 10. in
    if !skip_ratio < ratio_bar then begin
      Printf.eprintf "T14 FAIL: skip/rerun ratio %.1f below %.1f\n" !skip_ratio
        ratio_bar;
      exit 1
    end;
    (* gate (c): A/A — when every region is dirtied every event (100%
       footprint), incremental dispatch re-runs everything and must not
       regress beyond its bookkeeping overhead (footprint recording on
       each run + intersection per commit); retried to absorb scheduler
       hiccups *)
    let rec aa tries =
      let time ~incremental =
        Ablation.with_ { Ablation.current with incremental } (fun () ->
            let st = setup ~updating:false () in
            let ev = event ~all:true st in
            ev ();
            ns_per_run ev)
      in
      let on = time ~incremental:true in
      let off = time ~incremental:false in
      let delta = (on -. off) /. off in
      Printf.printf "A/A full-footprint delta (try %d): %+.1f%%\n" tries
        (100. *. delta);
      if delta <= 0.20 then ()
      else if tries >= 3 then begin
        Printf.eprintf
          "T14 FAIL: incremental dispatch regresses the full-footprint A/A \
           by more than 20%% after 3 tries\n";
        exit 1
      end
      else aa (tries + 1)
    in
    aa 1;
    print_endline "T14 check: equivalent, speedup bar met, skips proven, A/A ok"
  end

(* ------------------------------------------------------------------ *)
(* T15 — fleet-scale virtual-time simulation: N concurrent sessions
   against one app server with a priced request queue. The
   server-rendered workload pays one evaluation per visit and queues up
   as the fleet grows; the migrated (F2) workload only fetches cheap
   static artifacts, so its tail latency stays flat. All numbers are
   virtual-time and deterministic per seed. *)

let bench_t15 ?(check = false) () =
  section "T15"
    "fleet simulation: server-rendered vs migrated tail latency under load";
  let sizes = if smoke_enabled () then [ 8; 24 ] else [ 100; 400; 1600 ] in
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
  let entries = ref [] in
  let largest = List.fold_left max 0 sizes in
  let at_largest = ref None in
  List.iter
    (fun sessions ->
      let server = cell ~sessions ~migrated:false ~seed () in
      let migrated = cell ~sessions ~migrated:true ~seed () in
      if sessions = largest then at_largest := Some (server, migrated);
      List.iter
        (fun (mode, r, speedup) ->
          Printf.printf "%-6d %-9s | %6d %6d | %8.3f %8.3f %8.3f | %6d %8.1f\n"
            sessions mode r.Fleet.pages_ok r.Fleet.server_evals r.Fleet.p50
            r.Fleet.p99 r.Fleet.p999 r.Fleet.max_queue_depth
            r.Fleet.pages_per_sec;
          (* ns_per_op carries the p99 (in ns) so the JSON schema stays
             the same as every other bench file *)
          entries :=
            json_entry ?speedup
              ~name:(Printf.sprintf "fleet%d/%s" sessions mode)
              ~n:sessions
              (r.Fleet.p99 *. 1e9)
            :: !entries)
        [
          ("server", server, None);
          ("migrated", migrated, Some (server.Fleet.p99 /. migrated.Fleet.p99));
        ])
    sizes;
  print_endline
    "\nshape check: the server-rendered p99 climbs with the fleet size while\n\
     the migrated workload's stays near its raw fetch cost.";
  write_json ~file:"BENCH_T15.json" (List.rev !entries);
  if check then begin
    (* gate (a): determinism — the same seed reproduces the whole
       report (latency percentiles, shed counts, per-session totals)
       bit for bit, across two different seeds *)
    List.iter
      (fun seed ->
        let go () =
          cell ~sessions:(List.hd sizes) ~rate:0.2 ~shed_depth:6
            ~migrated:false ~seed ()
        in
        if go () <> go () then begin
          Printf.eprintf "T15 FAIL: same-seed fleets diverge (seed %d)\n" seed;
          exit 1
        end)
      [ seed; seed + 12 ];
    (* gate (b): admission control — under a burst arrival the server
       sheds rather than queue, and the backlog never exceeds the
       configured threshold *)
    let depth = 4 in
    let shed =
      cell ~sessions:largest ~spread:0.05 ~shed_depth:depth ~migrated:false
        ~seed ()
    in
    if shed.Fleet.sheds = 0 then begin
      Printf.eprintf "T15 FAIL: burst at depth %d shed no load\n" depth;
      exit 1
    end;
    if shed.Fleet.max_queue_depth > depth then begin
      Printf.eprintf "T15 FAIL: queue depth %d exceeds shed threshold %d\n"
        shed.Fleet.max_queue_depth depth;
      exit 1
    end;
    (* gate (c): the paper's offload claim at fleet scale — migrating
       the page work into the browsers strictly beats rendering on the
       server at the largest fleet's p99 *)
    let server, migrated = Option.get !at_largest in
    if not (migrated.Fleet.p99 < server.Fleet.p99) then begin
      Printf.eprintf
        "T15 FAIL: migrated p99 %.3fs not below server-rendered %.3fs at \
         fleet %d\n"
        migrated.Fleet.p99 server.Fleet.p99 largest;
      exit 1
    end;
    if migrated.Fleet.server_evals <> 0 then begin
      Printf.eprintf "T15 FAIL: migrated fleet still evaluated %d pages \
                      server-side\n"
        migrated.Fleet.server_evals;
      exit 1
    end;
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

(* [regions] widgets plus one <spare> sibling no listener attaches to
   or reads: mutating it is the always-miss dispatch workload, where
   the per-listener cost is exactly the footprint intersection. *)
let t16_page ~regions ~vals_per =
  let buf = Buffer.create (regions * vals_per * 140) in
  Buffer.add_string buf {|<html><head><script type="text/xquery">|};
  Buffer.add_string buf
    (Printf.sprintf
       "declare function local:w($evt, $obj) { count($obj//%s) + \
        count($obj//%s) * 2 };"
       (t16_name "va") (t16_name "vb"));
  Buffer.add_string buf
    {| on event "tick" at //div attach listener local:w</script></head><body><spare>0</spare>|};
  for r = 0 to regions - 1 do
    Buffer.add_string buf (Printf.sprintf {|<div id="r%d">|} r);
    for j = 1 to vals_per do
      let tag = t16_name (if j mod 2 = 0 then "va" else "vb") in
      Buffer.add_string buf (Printf.sprintf "<%s>%d</%s>" tag (j mod 4) tag)
    done;
    Buffer.add_string buf "</div>"
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let bench_t16 ?(check = false) () =
  section "T16" "name interning: symbol fast paths vs string comparison";
  let entries = ref [] in
  (* --- parse: both modes intern (the table is not ablatable), so the
     columns document an A/A tie; the sym counters prove each distinct
     name was interned exactly once *)
  let n_parse = if smoke_enabled () then 1000 else 10000 in
  let xml = t16_xml n_parse in
  let size0 = Xmlb.Sym.size () in
  ignore (Sys.opaque_identity (Dom.of_string xml));
  let size1 = Xmlb.Sym.size () in
  ignore (Sys.opaque_identity (Dom.of_string xml));
  let size2 = Xmlb.Sym.size () in
  let parse_on =
    Ablation.with_ { Ablation.current with interning = true } (fun () ->
        ns_per_run (fun () -> ignore (Sys.opaque_identity (Dom.of_string xml))))
  in
  let parse_off =
    Ablation.with_ { Ablation.current with interning = false } (fun () ->
        ns_per_run (fun () -> ignore (Sys.opaque_identity (Dom.of_string xml))))
  in
  Printf.printf "%-8d %-18s %14s %14s %9s\n" n_parse "workload" "interned"
    "ablated" "speedup";
  Printf.printf "%-8s %-18s %14s %14s %8.1fx\n" "" "parse-dom"
    (pretty_ns parse_on) (pretty_ns parse_off) (parse_off /. parse_on);
  Printf.printf
    "sym table: %d distinct names after parse (+%d), re-parse added %d\n"
    size1 (size1 - size0) (size2 - size1);
  entries :=
    json_entry ~name:"parse-dom/ablated" ~n:n_parse parse_off
    :: json_entry ~name:"parse-dom" ~n:n_parse parse_on
    :: !entries;
  (* --- name-test scans: child axis tests every sibling, descendant
     axis refines a local-name index bucket — both pay one Qname
     comparison per candidate, and the shared 1 KiB prefix makes the
     ablated comparison walk the whole name every time *)
  let n_scan = if smoke_enabled () then 2000 else 20000 in
  let ctx = Xdm_item.Node (Dom.of_string (t16_xml ~name:t16_scan_name n_scan)) in
  let scan_queries =
    [
      ( "child-name-scan",
        Printf.sprintf "count(/%s/%s)" (t16_scan_name "root")
          (t16_scan_name "even") );
      ("desc-name-scan", Printf.sprintf "count(//%s)" (t16_scan_name "even"));
    ]
  in
  let measure_scan (name, src) =
    let q =
      Xquery.Engine.compile ~static:(Xquery.Engine.default_static ()) src
    in
    let run_q () =
      ignore (Sys.opaque_identity (Xquery.Engine.run ~context_item:ctx q))
    in
    let show () =
      Xdm_item.to_display_string (Xquery.Engine.run ~context_item:ctx q)
    in
    (* correctness first: the ablation switch is the test oracle *)
    let r_on = Ablation.with_ { Ablation.current with interning = true } show in
    let r_off = Ablation.with_ { Ablation.current with interning = false } show in
    if not (String.equal r_on r_off) then begin
      Printf.eprintf "T16 FAIL: interned result differs on %s (%s vs %s)\n"
        name r_on r_off;
      exit 1
    end;
    let fast =
      Ablation.with_ { Ablation.current with interning = true } (fun () -> ns_per_run run_q)
    in
    let slow =
      Ablation.with_ { Ablation.current with interning = false } (fun () -> ns_per_run run_q)
    in
    let speedup = slow /. fast in
    Printf.printf "%-8s %-18s %14s %14s %8.1fx\n" "" name (pretty_ns fast)
      (pretty_ns slow) speedup;
    entries :=
      json_entry ~name:(name ^ "/ablated") ~n:n_scan slow
      :: json_entry ~name ~n:n_scan ~speedup fast
      :: !entries;
    (name, speedup)
  in
  let scan_speedups = List.map measure_scan scan_queries in
  (* --- listener dispatch: rerun-all re-runs name-heavy bodies under
     each mode; always-miss isolates the footprint intersection, which
     is symbol-keyed int hashing in BOTH modes and must tie *)
  let regions = if smoke_enabled () then 20 else 60 in
  let vals_per = if smoke_enabled () then 10 else 50 in
  let setup () =
    let b = browser_with ~page:(t16_page ~regions ~vals_per) () in
    let doc = B.document b in
    let divs =
      Array.init regions (fun r ->
          Option.get (Dom.get_element_by_id doc (Printf.sprintf "r%d" r)))
    in
    let firsts =
      Array.map
        (fun d -> List.hd (Dom.get_elements_by_local_name d (t16_name "vb")))
        divs
    in
    let spare = List.hd (Dom.get_elements_by_local_name doc "spare") in
    (b, divs, firsts, spare)
  in
  let dispatch_cost ~miss enabled =
    Ablation.with_ { Ablation.current with interning = enabled } (fun () ->
        let b, divs, firsts, spare = setup () in
        let c = ref 0 in
        let ev () =
          incr c;
          Dom.with_batch (fun () ->
              if miss then Dom.set_value spare (string_of_int (!c mod 4))
              else
                Array.iter
                  (fun v -> Dom.set_value v (string_of_int (!c mod 4)))
                  firsts);
          Array.iter (fun d -> B.dispatch b ~target:d "tick") divs
        in
        ev ();
        (* warm every memo *)
        ns_per_run ev)
  in
  let rerun_on = dispatch_cost ~miss:false true in
  let rerun_off = dispatch_cost ~miss:false false in
  Printf.printf "%-8d %-18s %14s %14s %8.1fx\n" (regions * vals_per)
    "dispatch-rerun" (pretty_ns rerun_on) (pretty_ns rerun_off)
    (rerun_off /. rerun_on);
  entries :=
    json_entry ~name:"dispatch-rerun/ablated" ~n:(regions * vals_per) rerun_off
    :: json_entry
         ~name:"dispatch-rerun" ~n:(regions * vals_per)
         ~speedup:(rerun_off /. rerun_on) rerun_on
    :: !entries;
  let miss_on = dispatch_cost ~miss:true true in
  let miss_off = dispatch_cost ~miss:true false in
  Printf.printf "%-8d %-18s %14s %14s %8.1fx\n" (regions * vals_per)
    "dispatch-miss" (pretty_ns miss_on) (pretty_ns miss_off)
    (miss_off /. miss_on);
  entries :=
    json_entry ~name:"dispatch-miss/ablated" ~n:(regions * vals_per) miss_off
    :: json_entry
         ~name:"dispatch-miss" ~n:(regions * vals_per)
         ~speedup:(miss_off /. miss_on) miss_on
    :: !entries;
  let stats = Xmlb.Sym.stats () in
  let stat k = try List.assoc k stats with Not_found -> 0 in
  Printf.printf "\nsym counters: size=%d bytes=%d hits=%d misses=%d\n"
    (stat "size") (stat "bytes") (stat "hits") (stat "misses");
  entries :=
    json_entry ~name:"sym/bytes" ~n:(stat "size") (float_of_int (stat "bytes"))
    :: json_entry ~name:"sym/size" ~n:(stat "size")
         (float_of_int (stat "size"))
    :: !entries;
  write_json ~file:"BENCH_T16.json" (List.rev !entries);
  if check then begin
    (* gate (a): the parser memoizes per-document and the table dedups
       globally — re-parsing the same document must intern nothing *)
    if size2 <> size1 then begin
      Printf.eprintf "T16 FAIL: re-parse grew the intern table by %d\n"
        (size2 - size1);
      exit 1
    end;
    (* gate (b): a name-test scan clears the speedup bar (retried: the
       per-candidate win is tens of ns, so smoke quotas are noisy) *)
    let bar = 1.3 in
    let best l = List.fold_left (fun a (_, s) -> Float.max a s) 0. l in
    let rec scan_gate tries speedups =
      if best speedups >= bar then ()
      else if tries >= 3 then begin
        Printf.eprintf "T16 FAIL: best name-scan speedup %.2fx below %.1fx\n"
          (best speedups) bar;
        exit 1
      end
      else begin
        Printf.printf "scan gate below bar, re-measuring (try %d)\n" (tries + 1);
        scan_gate (tries + 1) (List.map measure_scan scan_queries)
      end
    in
    scan_gate 1 scan_speedups;
    (* gate (c): A/A — the always-miss dispatch exercises only machinery
       both modes share (symbol-keyed footprint intersection), so the
       ablation must not change it; retried to absorb scheduler
       hiccups *)
    let rec aa tries =
      let on = dispatch_cost ~miss:true true in
      let off = dispatch_cost ~miss:true false in
      let delta = (on -. off) /. off in
      Printf.printf "A/A always-miss delta (try %d): %+.1f%%\n" tries
        (100. *. delta);
      if delta <= 0.10 then ()
      else if tries >= 3 then begin
        Printf.eprintf
          "T16 FAIL: interning changes the always-miss dispatch by more \
           than 10%% after 3 tries\n";
        exit 1
      end
      else aa (tries + 1)
    in
    aa 1;
    print_endline
      "T16 check: results identical, intern table stable, scan bar met, \
       A/A ties"
  end

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
  let run id f = if !only = [] || List.mem id !only then f () in
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
  run "t8" bench_t8;
  run "t9" (bench_t9 ~check:!check ?trace_file:!trace_file);
  run "t10" (bench_t10 ~check:!check);
  run "t11" (bench_t11 ~check:!check);
  run "t12" (bench_t12 ~check:!check);
  run "t13" (bench_t13 ~check:!check);
  run "t14" (bench_t14 ~check:!check);
  run "t15" (bench_t15 ~check:!check);
  run "t16" (bench_t16 ~check:!check);
  print_endline "\ndone."
