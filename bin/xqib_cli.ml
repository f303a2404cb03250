(* xqib — command-line front end to the XQuery-in-the-browser runtime.

   xqib eval  'EXPR'                evaluate an expression
   xqib run   FILE.xq               run a query/program file
   xqib page  FILE.html [options]   load a page in the simulated browser,
                                    optionally simulate clicks/typing,
                                    print alerts and the resulting DOM
   xqib migrate FILE.xq             print the client page produced by the
                                    §6.1 server-to-client migration
   xqib parse FILE.xq               parse and re-print (normalised) source *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let handle f =
  try f () with
  | Xq_error.Error e ->
      Printf.eprintf "error: %s\n" (Xq_error.to_string e);
      exit 1
  | Xmlb.Xml_parser.Parse_error { line; col; message } ->
      Printf.eprintf "XML parse error at %d:%d: %s\n" line col message;
      exit 1
  | Minijs.Js_interp.Js_error m | Minijs.Js_lexer.Js_syntax_error m ->
      Printf.eprintf "JavaScript error: %s\n" m;
      exit 1

let print_result seq =
  List.iter
    (fun item ->
      match item with
      | Xdm_item.Node n -> print_endline (Dom.serialize ~indent:true n)
      | Xdm_item.Atomic a -> print_endline (Xdm_atomic.to_string a))
    seq

(* ---- observability options (shared by eval/run/page) ---- *)

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record hierarchical spans over the whole pipeline (compile, \
           evaluate, PUL apply, network, render) and print the span tree; \
           with FILE, additionally write the trace as JSON there ('-' \
           prints the JSON instead of the tree).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the always-on counter registry (axis steps, cache hits, \
           faults, ...) as JSON after the run.")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:"Print query-cache statistics (hits, misses, evictions, bytes saved) after the run.")

(* The five --no-* flags, parsed into the one configuration a command
   runs under (A/B baselines and oracles; every layer is on by
   default). *)
let ablation_arg =
  let off name doc = Arg.(value & flag & info [ name ] ~doc) in
  let config no_cache no_value_index no_join_planner no_compiled_eval
      no_incremental =
    {
      Xmlb.Ablation.current with
      query_cache = not no_cache;
      value_index = not no_value_index;
      join_planning = not no_join_planner;
      compiled_eval = not no_compiled_eval;
      incremental = not no_incremental;
    }
  in
  Term.(
    const config
    $ off "no-query-cache"
        "Disable the compiled-query cache: every script/expression is \
         parsed and optimized from scratch (A/B baseline for the cache)."
    $ off "no-value-index"
        "Disable the DOM value indexes: [@k eq 'v']-style predicate \
         lookups and hash-join key refinement scan the tree instead \
         (A/B baseline for the value index). Combine with --metrics \
         to compare the dom.value_index.hits counter."
    $ off "no-join-planner"
        "Disable the equi-join planner: two-for FLWOR joins run as \
         nested loops instead of hash joins (A/B baseline for the \
         planner; see the xquery.join.* counters)."
    $ off "no-compiled-eval"
        "Run the eager reference evaluator, which walks the AST, \
         instead of the closure compiler, production's one evaluator \
         (A/B baseline and oracle; see the xquery.compile.* counters \
         of --metrics or browser:stats())."
    $ off "no-incremental"
        "Disable incremental listener recomputation: every event \
         dispatch re-runs every matching listener instead of skipping \
         those whose read footprint no mutation has touched (A/B \
         baseline; see the reactive.* counters of --metrics or \
         browser:stats()).")

let obs_setup ~trace = if trace <> None then Obs.Trace.set_enabled true

let cache_report ~cache_stats =
  if cache_stats then begin
    let c = Xquery.Engine.query_cache in
    let s = Xquery.Query_cache.stats c in
    Printf.eprintf
      "== query cache ==\n\
       enabled: %b  entries: %d/%d  generation: %d\n\
       hits: %d  misses: %d  hit-rate: %.1f%%  evictions: %d  source bytes saved: %d\n"
      Xmlb.Ablation.current.query_cache s.Xquery.Query_cache.entries
      (Xquery.Query_cache.capacity c)
      (Xquery.Query_cache.generation c)
      s.Xquery.Query_cache.hits s.Xquery.Query_cache.misses
      (100. *. Xquery.Query_cache.hit_rate c)
      s.Xquery.Query_cache.evictions s.Xquery.Query_cache.cost_saved
  end

(* validate before writing: a malformed trace export is an engine bug
   and must fail loudly, not poison downstream tooling *)
let obs_report ~trace ~metrics =
  (match trace with
  | None -> ()
  | Some dest ->
      let json = Obs.Trace.export_json () in
      (match Obs.Json.validate json with
      | Ok () -> ()
      | Error m ->
          Printf.eprintf "internal error: malformed trace JSON: %s\n" m;
          exit 3);
      if dest = "-" then print_endline json
      else begin
        let oc = open_out dest in
        output_string oc json;
        output_char oc '\n';
        close_out oc
      end;
      prerr_endline "== trace ==";
      List.iter
        (fun s -> Format.eprintf "%a@." Obs.Span.pp s)
        (Obs.Trace.roots ());
      if Obs.Trace.dropped () > 0 then
        Format.eprintf "(%d root spans dropped)@." (Obs.Trace.dropped ()));
  if metrics then begin
    prerr_endline "== metrics ==";
    print_endline (Obs.Metrics.to_json ())
  end

(* ---- eval ---- *)

let eval_cmd =
  let expr = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR") in
  let optimize =
    Arg.(value & opt bool true & info [ "optimize" ] ~doc:"Run the rewrite optimizer.")
  in
  let run expr optimize trace metrics cache_stats ablation =
    obs_setup ~trace;
    Xmlb.Ablation.with_ ablation @@ fun () ->
    handle (fun () ->
        print_result (Xquery.Engine.eval_string ~optimize expr);
        obs_report ~trace ~metrics;
        cache_report ~cache_stats)
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate an XQuery expression")
    Term.(
      const run $ expr $ optimize $ trace_arg $ metrics_arg $ cache_stats_arg
      $ ablation_arg)

(* ---- run ---- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.xq") in
  let run file trace metrics cache_stats ablation =
    obs_setup ~trace;
    Xmlb.Ablation.with_ ablation @@ fun () ->
    handle (fun () ->
        print_result (Xquery.Engine.eval_string (read_file file));
        obs_report ~trace ~metrics;
        cache_report ~cache_stats)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an XQuery program file")
    Term.(
      const run $ file $ trace_arg $ metrics_arg $ cache_stats_arg
      $ ablation_arg)

(* ---- page ---- *)

let page_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.html") in
  let clicks =
    Arg.(value & opt_all string [] & info [ "click" ] ~docv:"ID" ~doc:"Click the element with this id (repeatable).")
  in
  let types =
    Arg.(value & opt_all string [] & info [ "type" ] ~docv:"ID=TEXT" ~doc:"Type TEXT into the element with id ID (repeatable).")
  in
  let show_doc =
    Arg.(value & flag & info [ "show-doc" ] ~doc:"Print the final document.")
  in
  let render =
    Arg.(value & flag & info [ "render" ] ~doc:"Render the final page as text.")
  in
  let uppercase =
    Arg.(value & flag & info [ "ie-uppercase" ] ~doc:"Model IE's tag upper-casing quirk (paper §5.1).")
  in
  let query =
    Arg.(value & opt (some string) None & info [ "query" ] ~docv:"XQUERY" ~doc:"Run a query against the final page and print the result.")
  in
  let fault_rate =
    Arg.(
      value
      & opt float 0.
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Inject network faults (drops + 5xx) with this total \
             probability per request, in [0,1). The browser retries with \
             backoff and falls back to its client-side store.")
  in
  let seed =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the deterministic fault/retry randomness; the same \
             seed replays the exact same schedule.")
  in
  let run file clicks types show_doc render uppercase query fault_rate seed
      trace metrics cache_stats ablation =
    if fault_rate < 0. || fault_rate >= 1. then begin
      Printf.eprintf "error: --fault-rate must be in [0, 1), got %g\n" fault_rate;
      exit 2
    end;
    obs_setup ~trace;
    Xmlb.Ablation.with_ ablation @@ fun () ->
    handle (fun () ->
        Minijs.Js_interp.install ();
        let b =
          Xqib.Browser.create ~uppercase_tags:uppercase ~seed
            ~net_fallback:(fault_rate > 0.) ()
        in
        Xqib.Browser.connect_obs b;
        if fault_rate > 0. then
          Http_sim.set_faults b.Xqib.Browser.http ~seed
            (Http_sim.uniform_faults ~rate:fault_rate);
        Xqib.Page.load b (read_file file);
        Xqib.Browser.run b;
        let doc = Xqib.Browser.document b in
        List.iter
          (fun spec ->
            match String.index_opt spec '=' with
            | Some i ->
                let id = String.sub spec 0 i in
                let text = String.sub spec (i + 1) (String.length spec - i - 1) in
                (match Dom.get_element_by_id doc id with
                | Some el -> Xqib.Browser.type_text b el text
                | None -> Printf.eprintf "no element with id %S\n" id)
            | None -> Printf.eprintf "bad --type spec %S (want ID=TEXT)\n" spec)
          types;
        List.iter
          (fun id ->
            match Dom.get_element_by_id doc id with
            | Some el -> Xqib.Browser.click b el
            | None -> Printf.eprintf "no element with id %S\n" id)
          clicks;
        Xqib.Browser.run b;
        (* failed scripts and listeners, like a browser's error console *)
        List.iter
          (Printf.eprintf "script error: %s\n")
          (List.rev b.Xqib.Browser.script_errors);
        (match Xqib.Browser.alerts b with
        | [] -> ()
        | alerts ->
            print_endline "== alerts ==";
            List.iter print_endline alerts);
        (match query with
        | Some q ->
            print_endline "== query result ==";
            print_result (Xqib.Page.run_xquery b b.Xqib.Browser.top_window q)
        | None -> ());
        if show_doc then begin
          print_endline "== document ==";
          print_endline (Dom.serialize ~indent:true doc)
        end;
        if render then begin
          print_endline "== rendered ==";
          print_endline (Xqib.Renderer.render doc)
        end
        else if trace <> None then
          (* a traced session should always show the full pipeline,
             render included, even when the text output is not wanted *)
          ignore (Xqib.Renderer.render doc);
        Printf.printf "(%d events dispatched, %d DOM mutations)\n"
          b.Xqib.Browser.events_dispatched b.Xqib.Browser.render_count;
        if fault_rate > 0. then begin
          let stats = b.Xqib.Browser.net_stats in
          let rs = Rest.retry_stats b.Xqib.Browser.rest in
          Printf.printf
            "(faults: %d injected; %d retries, %d timeouts, %d exhausted, \
             %d store fallbacks)\n"
            (Http_sim.total_injected_faults b.Xqib.Browser.http)
            (stats.Retry.retries + rs.Retry.retries)
            (stats.Retry.timeouts + rs.Retry.timeouts)
            (stats.Retry.exhausted + rs.Retry.exhausted)
            (Rest.fallback_hits b.Xqib.Browser.rest)
        end;
        obs_report ~trace ~metrics;
        cache_report ~cache_stats)
  in
  Cmd.v
    (Cmd.info "page" ~doc:"Load an (X)HTML page in the simulated browser")
    Term.(
      const run $ file $ clicks $ types $ show_doc $ render $ uppercase $ query
      $ fault_rate $ seed $ trace_arg $ metrics_arg $ cache_stats_arg
      $ ablation_arg)

(* ---- migrate ---- *)

let migrate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.xq") in
  let doc_base =
    Arg.(
      value
      & opt string "http://localhost/docs/"
      & info [ "doc-base" ] ~docv:"URI" ~doc:"Base URI fn:doc calls are rewritten to.")
  in
  let run file doc_base =
    handle (fun () ->
        print_endline (Appserver.Migration.migrate ~doc_base (read_file file)))
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Migrate a server-side XQuery page to a client page (paper §6.1)")
    Term.(const run $ file $ doc_base)

(* ---- fleet ---- *)

let fleet_cmd =
  let sessions =
    Arg.(
      value
      & opt int 100
      & info [ "fleet" ] ~docv:"N"
          ~doc:
            "Number of concurrent simulated browser sessions. Each gets \
             its own window tree, cookie jar and retry PRNG; all share one \
             virtual clock and one app server.")
  in
  let tenants =
    Arg.(
      value
      & opt int 1
      & info [ "tenants" ] ~docv:"K"
          ~doc:
            "Partition the fleet over K tenants: sessions prefix their \
             requests with /t<k>/ and the server compiles each tenant's \
             pages into its own query-cache partition.")
  in
  let shed_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "shed-depth" ] ~docv:"D"
          ~doc:
            "Admission-control threshold: when the server's request \
             backlog reaches D the request is shed with a 503 and a \
             Retry-After hint (consumed by the clients' retry policies). \
             Unset means never shed.")
  in
  let visits =
    Arg.(
      value & opt int 3
      & info [ "visits" ] ~docv:"V" ~doc:"Page visits per session, separated by think time.")
  in
  let migrated =
    Arg.(
      value & flag
      & info [ "migrated" ]
          ~doc:
            "Visit the migrated (client-side) page instead of the \
             server-rendered one: the server only hands out static \
             artifacts and documents, the browsers do the evaluation.")
  in
  let service_cost =
    Arg.(
      value
      & opt float 0.02
      & info [ "service-cost" ] ~docv:"S"
          ~doc:
            "Virtual seconds of server time per page evaluation (static \
             artifacts cost a tenth of this); requests queue FIFO behind \
             a single server.")
  in
  let spread =
    Arg.(
      value & opt float 10.
      & info [ "spread" ] ~docv:"S" ~doc:"Arrival window: sessions start uniformly over [0, S) virtual seconds.")
  in
  let think =
    Arg.(
      value & opt float 5.
      & info [ "think" ] ~docv:"S" ~doc:"Mean think time between a session's visits, in virtual seconds.")
  in
  let fault_rate =
    Arg.(
      value
      & opt float 0.
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Inject network faults (drops + 5xx) with this probability per request, in [0,1).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Fleet seed: arrivals, think times, per-session retry jitter and faults all derive from it; the same seed replays the same run.")
  in
  let max_tasks =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tasks" ] ~docv:"N"
          ~doc:
            "Virtual-clock task budget. Defaults to a budget scaled to \
             the fleet size; exhausting it is an error, never a silent \
             truncation.")
  in
  let run sessions tenants shed_depth visits migrated service_cost spread think
      fault_rate seed max_tasks metrics =
    if sessions < 1 then begin
      Printf.eprintf "error: --fleet must be >= 1, got %d\n" sessions;
      exit 2
    end;
    if fault_rate < 0. || fault_rate >= 1. then begin
      Printf.eprintf "error: --fault-rate must be in [0, 1), got %g\n" fault_rate;
      exit 2
    end;
    handle (fun () ->
        Minijs.Js_interp.install ();
        let r =
          Scenarios.run_fleet ~sessions ~tenants ?shed_depth ~visits ~migrated
            ~service_cost ~spread ~think ~rate:fault_rate ?max_tasks ~seed ()
        in
        Format.printf "%a@." Appserver.Fleet.pp_report r;
        obs_report ~trace:None ~metrics)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a fleet of browser sessions against one app server in \
          virtual time (deterministic per seed)")
    Term.(
      const run $ sessions $ tenants $ shed_depth $ visits $ migrated
      $ service_cost $ spread $ think $ fault_rate $ seed $ max_tasks
      $ metrics_arg)

(* ---- parse ---- *)

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.xq") in
  let run file =
    handle (fun () ->
        let static = Xquery.Engine.default_static () in
        let prog = Xquery.Parser.parse_program static (read_file file) in
        print_string (Xquery.Ast_printer.program_to_source prog))
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a program and print normalised source")
    Term.(const run $ file)

(* ---- repl ---- *)

let repl_cmd =
  let page =
    Arg.(
      value
      & opt (some file) None
      & info [ "page" ] ~docv:"FILE.html" ~doc:"Load this page first; queries run against it.")
  in
  let run page =
    handle (fun () ->
        Minijs.Js_interp.install ();
        let b = Xqib.Browser.create () in
        (match page with
        | Some f -> Xqib.Page.load b (read_file f)
        | None -> Xqib.Page.load b "<html><body/></html>");
        print_endline "xqib repl — XQuery against a simulated page.";
        print_endline "Statements share one page context (scripting semantics).";
        print_endline "Type :doc to print the page, :quit to exit.";
        let rec loop () =
          print_string "xq> ";
          match read_line () with
          | exception End_of_file -> ()
          | ":quit" | ":q" -> ()
          | ":doc" ->
              print_endline (Dom.serialize ~indent:true (Xqib.Browser.document b));
              loop ()
          | ":alerts" ->
              List.iter print_endline (Xqib.Browser.alerts b);
              loop ()
          | "" -> loop ()
          | line ->
              (try
                 let result = Xqib.Page.run_xquery b b.Xqib.Browser.top_window line in
                 Xqib.Browser.run b;
                 print_result result
               with
              | Xq_error.Error e ->
                  Printf.printf "error: %s
" (Xq_error.to_string e)
              | Minijs.Js_interp.Js_error m -> Printf.printf "js error: %s
" m);
              loop ()
        in
        loop ())
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive XQuery against a simulated page")
    Term.(const run $ page)

let () =
  let info =
    Cmd.info "xqib" ~version:"1.0.0"
      ~doc:"XQuery in the Browser — simulated-browser XQuery runtime"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ eval_cmd; run_cmd; page_cmd; migrate_cmd; fleet_cmd; parse_cmd; repl_cmd ]))
