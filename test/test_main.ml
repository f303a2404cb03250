let () =
  Alcotest.run "xqib"
    [
      ("xmlb", Test_xmlb.suite);
      ("parse-build", Test_one_tree.build_suite);
      ("serialize", Test_one_tree.serialize_suite);
      ("dom", Test_dom.suite);
      ("dom-order", Test_dom_order.suite);
      ("xdm", Test_xdm.suite);
      ("xquery-lang", Test_xquery_lang.suite);
      ("functions", Test_functions.suite);
      ("conformance-strings", Test_conformance_strings.suite);
      ("update", Test_update.suite);
      ("scripting", Test_scripting.suite);
      ("properties", Test_properties.suite);
      ("data-model", Test_properties.data_model_suite);
      ("interning", Test_interning.suite);
      ("optimizer", Test_optimizer.suite);
      ("streaming", Test_streaming.suite);
      ("joins", Test_joins.suite);
      ("query-cache", Test_query_cache.suite);
      ("reactive", Test_reactive.suite);
      ("ownership", Test_ownership.suite);
      ("compile", Test_compile.suite);
      ("net", Test_net.suite);
      ("faults", Test_faults.suite);
      ("browser", Test_browser.suite);
      ("windows", Test_windows.suite);
      ("renderer", Test_renderer.suite);
      ("minijs", Test_minijs.suite);
      ("appserver", Test_appserver.suite);
      ("fleet", Test_fleet.suite);
      ("integration", Test_integration.suite);
      ("usecases", Test_usecases.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("obs", Test_obs.suite);
      ("misc", Test_misc.suite);
    ]
