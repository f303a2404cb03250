(* The observability layer: span trees, the always-on counter registry
   (one handle per name, increments that allocate nothing), the JSON
   export/validator pair, the record-no-span-when-untraced contract,
   and the browser:stats() surface. *)

let check = Alcotest.check

(* every test runs against clean, known-state registries and leaves
   tracing off for the rest of the suite *)
let t name f =
  Alcotest.test_case name `Quick (fun () ->
      Obs.Trace.reset ();
      Obs.Metrics.reset ();
      Obs.Trace.set_clock (fun () -> 0.);
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.set_enabled false;
          Obs.Trace.set_capacity 1024;
          Obs.Trace.reset ();
          Obs.Metrics.reset ())
        f)

let trace_tests =
  [
    t "nested spans build a tree" (fun () ->
        Obs.Trace.set_enabled true;
        Obs.Trace.with_span "outer" (fun () ->
            Obs.Trace.with_span "inner-1" (fun () -> ());
            Obs.Trace.with_span "inner-2" (fun () ->
                Obs.Trace.add_attr "k" "v"));
        match Obs.Trace.roots () with
        | [ root ] ->
            check Alcotest.(list string) "preorder names"
              [ "outer"; "inner-1"; "inner-2" ]
              (Obs.Span.names root);
            check Alcotest.int "span count" 3 (Obs.Span.count root);
            let inner2 = Option.get (Obs.Span.find ~name:"inner-2" root) in
            check Alcotest.(list (pair string string)) "attrs" [ ("k", "v") ]
              inner2.Obs.Span.attrs
        | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
    t "a raising thunk still closes its span" (fun () ->
        Obs.Trace.set_enabled true;
        (try Obs.Trace.with_span "boom" (fun () -> failwith "expected")
         with Failure _ -> ());
        match Obs.Trace.roots () with
        | [ root ] ->
            check Alcotest.string "name" "boom" root.Obs.Span.name;
            check Alcotest.bool "error attr" true
              (List.mem_assoc "error" root.Obs.Span.attrs)
        | _ -> Alcotest.fail "span was lost on exception");
    t "ring buffer drops oldest roots" (fun () ->
        Obs.Trace.set_enabled true;
        Obs.Trace.set_capacity 2;
        List.iter
          (fun name -> Obs.Trace.with_span name (fun () -> ()))
          [ "a"; "b"; "c" ];
        check Alcotest.(list string) "survivors" [ "b"; "c" ]
          (List.map (fun s -> s.Obs.Span.name) (Obs.Trace.roots ()));
        check Alcotest.int "dropped" 1 (Obs.Trace.dropped ()));
    t "export is valid JSON" (fun () ->
        Obs.Trace.set_enabled true;
        Obs.Trace.with_span
          ~attrs:[ ("quote", "a\"b\\c"); ("ctl", "x\n\ty") ]
          "tricky attrs"
          (fun () -> Obs.Trace.with_span "child" (fun () -> ()));
        let json = Obs.Trace.export_json () in
        match Obs.Json.validate json with
        | Ok () -> ()
        | Error m -> Alcotest.failf "export not valid JSON: %s\n%s" m json);
    t "disabled tracing records nothing" (fun () ->
        Obs.Trace.with_span "ghost" (fun () ->
            Obs.Trace.add_attr "k" "v");
        check Alcotest.int "no roots" 0 (List.length (Obs.Trace.roots ())));
  ]

let metrics_tests =
  [
    t "counters accumulate and sort" (fun () ->
        let a = Obs.Metrics.counter "a.one" and b = Obs.Metrics.counter "b.two" in
        ignore (Obs.Metrics.counter "c.untouched");
        Obs.Metrics.incr b;
        Obs.Metrics.add a 41;
        Obs.Metrics.incr a;
        check
          Alcotest.(list (pair string int))
          "registry"
          [ ("a.one", 42); ("b.two", 1) ]
          (Obs.Metrics.counters ()));
    t "histograms summarize observations" (fun () ->
        List.iter (Obs.Metrics.observe (Obs.Metrics.histogram "lat")) [ 0.5; 1.5; 0.25 ];
        match Obs.Metrics.histograms () with
        | [ ("lat", h) ] ->
            check Alcotest.int "count" 3 h.Obs.Metrics.count;
            check (Alcotest.float 1e-9) "sum" 2.25 h.Obs.Metrics.sum;
            check (Alcotest.float 1e-9) "min" 0.25 h.Obs.Metrics.min;
            check (Alcotest.float 1e-9) "max" 1.5 h.Obs.Metrics.max
        | _ -> Alcotest.fail "expected exactly the 'lat' histogram");
    t "counter increments allocate nothing" (fun () ->
        let c = Obs.Metrics.counter "alloc.probe" in
        let before = Gc.minor_words () in
        for _ = 1 to 100_000 do
          Obs.Metrics.incr c
        done;
        let words = Gc.minor_words () -. before in
        check (Alcotest.float 0.) "minor words" 0. words;
        check Alcotest.int "counted" 100_000 (Obs.Metrics.value c));
    t "registering a name twice yields one handle" (fun () ->
        let a = Obs.Metrics.counter "same.name" and b = Obs.Metrics.counter "same.name" in
        check Alcotest.bool "physically equal" true (a == b);
        Obs.Metrics.incr a;
        Obs.Metrics.incr b;
        check Alcotest.int "one cell" 2 (Obs.Metrics.value a);
        check Alcotest.bool "one histogram" true
          (Obs.Metrics.histogram "same.h" == Obs.Metrics.histogram "same.h");
        Obs.Metrics.reset ();
        check Alcotest.int "reset keeps the handle" 0 (Obs.Metrics.value b);
        Obs.Metrics.incr b;
        check
          Alcotest.(list (pair string int))
          "still registered" [ ("same.name", 1) ] (Obs.Metrics.counters ()));
    t "metrics export is valid JSON" (fun () ->
        Obs.Metrics.incr (Obs.Metrics.counter "a\"b");
        Obs.Metrics.observe (Obs.Metrics.histogram "h") 0.125;
        match Obs.Json.validate (Obs.Metrics.to_json ()) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "not valid JSON: %s" m);
  ]

let json_tests =
  [
    t "validator accepts documents" (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.validate s with
            | Ok () -> ()
            | Error m -> Alcotest.failf "rejected %s: %s" s m)
          [
            "{}"; "[]"; "null"; "true"; "-1.5e3"; "\"a\\u00e9\"";
            "{\"a\": [1, 2, {\"b\": null}], \"c\": \"d\"}";
          ]);
    t "validator rejects malformed documents" (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.validate s with
            | Ok () -> Alcotest.failf "accepted malformed %s" s
            | Error _ -> ())
          [
            ""; "{"; "[1,]"; "{\"a\" 1}"; "\"unterminated"; "01"; "nul";
            "{} trailing"; "\"bad\\q\"";
          ]);
  ]

(* ---------- the engine actually reports through the layer ---------- *)

let count name = Obs.Metrics.(value (counter name))

let integration_tests =
  [
    t "a traced page run covers the pipeline" (fun () ->
        Obs.Trace.set_enabled true;
        let b = Xqib.Browser.create () in
        Xqib.Browser.connect_obs b;
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare updating function local:main() {
              insert node <p>hi</p> into //body
            };
            </script></head><body/></html>|};
        Xqib.Browser.run b;
        ignore (Xqib.Renderer.render (Xqib.Browser.document b));
        let names =
          List.concat_map Obs.Span.names (Obs.Trace.roots ())
        in
        List.iter
          (fun expected ->
            check Alcotest.bool expected true (List.mem expected names))
          [
            "page.load"; "page.parse-html"; "page.script"; "engine.compile";
            "engine.parse"; "engine.eval"; "pul.apply"; "render";
          ];
        check Alcotest.bool "counted steps" true (count "eval.steps" > 0);
        check Alcotest.bool "counted a PUL insert" true (count "pul.prim.insert-into" > 0));
    t "browser:stats() exposes the registry as XML" (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b "<html><body><i/></body></html>";
        ignore (Xqib.Page.run_xquery b b.Xqib.Browser.top_window "count(//i)");
        let got src =
          Xdm_item.to_display_string
            (Xqib.Page.run_xquery b b.Xqib.Browser.top_window src)
        in
        check Alcotest.string "steps counter present" "true"
          (got
             "exists(browser:stats()//counter[@name = 'eval.steps'][number(@value) ge 1])"));
    (* tracing is off, so no span is recorded; counting is always on *)
    t "disabled engine run records nothing" (fun () ->
        ignore (Xquery.Engine.eval_string "count((1, 2, 3))");
        check Alcotest.int "no spans" 0 (List.length (Obs.Trace.roots ()));
        check Alcotest.int "counted the call" 1 (count "eval.calls.builtin"));
    t "browser:stats() lists the registry's counters and nothing else counts"
      (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare function local:f() { count(//i) };
            local:f()
            </script></head><body><i/></body></html>|};
        let stats =
          match Xqib.Page.run_xquery b b.Xqib.Browser.top_window "browser:stats()" with
          | [ Xdm_item.Node n ] -> n
          | _ -> Alcotest.fail "browser:stats() is not one node"
        in
        let registry = Obs.Metrics.counters () in
        let attr n k = Option.get (Dom.attribute_local n k) in
        let children n = List.filter (fun c -> Dom.kind c = Dom.Element) (Dom.children n) in
        let local n = (Option.get (Dom.name n)).Xmlb.Qname.local in
        let section name = List.find (fun c -> local c = name) (children stats) in
        let listed =
          List.map
            (fun c -> (attr c "name", int_of_string (attr c "value")))
            (children (section "counters"))
        in
        (* building the snapshot's elements interns their names after
           the registry was read, so only sym.hits moves on *)
        let moved (k, _) = k = "sym.hits" in
        check
          Alcotest.(list (pair string int))
          "<counter>s are the registry"
          (List.filter (Fun.negate moved) registry)
          (List.filter (Fun.negate moved) listed);
        check Alcotest.bool "sym.hits listed, then moved on" true
          (List.assoc "sym.hits" listed <= List.assoc "sym.hits" registry);
        check Alcotest.bool "the page compiled and counted" true
          (List.mem_assoc "xquery.compile.fns" registry);
        check
          Alcotest.(list string)
          "elements"
          [ "counters"; "histograms"; "spans"; "query-cache"; "reactive"; "sym" ]
          (List.map local (children stats));
        let attr_names n = List.map (fun a -> local a) (Dom.attributes n) in
        check Alcotest.(list string) "reactive state" [ "listeners" ]
          (attr_names (section "reactive"));
        check Alcotest.(list string) "sym state" [ "size" ] (attr_names (section "sym")));
    t "the module views read the registry" (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare function local:w($evt, $obj) { count($obj//i) };
            on event "onclick" at //div attach listener local:w
            </script></head><body><div id="d"><i/></div></body></html>|};
        let d = Option.get (Dom.get_element_by_id (Xqib.Browser.document b) "d") in
        List.iter (fun () -> Xqib.Browser.dispatch b ~target:d "onclick") [ (); (); () ];
        let views =
          List.map (fun (k, v) -> ("compile." ^ k, v)) (Xquery.Compile.stats ())
          @ List.map (fun (k, v) -> ("reactive." ^ k, v)) (Xquery.Reactive.counter_stats ())
          @ [ ("dom_event.invocations", Dom_event.invocation_count ()) ]
          @ List.map (fun (k, v) -> ("sym." ^ k, v)) (Xmlb.Sym.stats ())
        in
        let registry =
          [
            ("compile.programs", count "xquery.compile.programs");
            ("compile.functions", count "xquery.compile.fns");
            ("compile.nodes", count "xquery.compile.nodes");
            ("compile.opaque-nodes", 0);
            ("reactive.skips", count "reactive.skip");
            ("reactive.reruns", count "reactive.rerun");
            ("reactive.unchanged", count "reactive.unchanged");
            ("reactive.invalidations", count "reactive.invalidation");
            ("reactive.poisoned-runs", count "reactive.poisoned");
            ("dom_event.invocations", count "dom_event.invocations");
            ("sym.size", Xmlb.Sym.size ());
            ("sym.bytes", count "sym.bytes");
            ("sym.hits", count "sym.hits");
            ("sym.misses", count "sym.misses");
          ]
        in
        check Alcotest.(list (pair string int)) "views" registry views;
        List.iter
          (fun k -> check Alcotest.bool (k ^ " moved") true (List.assoc k views > 0))
          [
            "compile.programs"; "compile.nodes"; "reactive.skips"; "reactive.reruns";
            "dom_event.invocations"; "sym.hits";
          ]);
  ]

let suite = trace_tests @ metrics_tests @ json_tests @ integration_tests
