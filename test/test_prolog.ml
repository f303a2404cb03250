(* How a prolog reaches a static context: the parser only reads the
   context, Engine.install adds a program's prolog once the program has
   compiled, and a script's code covers only the declarations it added.
   Directed tests for each way a prolog used to leak (a failed compile
   that left declarations behind, earlier scripts' functions and
   initializers compiled and run again by every later script, a parse
   that loaded modules, an imported module's prefix bound in the
   importer, a failed import marked imported), the navigation and
   descriptor faults that escaped as untyped exceptions, and a property:
   a page with broken scripts behaves like the page of its working
   scripts. *)

open Xquery
module I = Xdm_item
module B = Xqib.Browser
module SC = Static_context
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let strings = Alcotest.(list string)

let page scripts =
  "<html><head>"
  ^ String.concat ""
      (List.map (fun s -> "<script type=\"text/xquery\">" ^ s ^ "</script>") scripts)
  ^ "</head><body/></html>"

let load ?(setup = ignore) scripts =
  let b = B.create () in
  setup b;
  Xqib.Page.load b (page scripts);
  b

let page_static b =
  (Option.get (Xqib.Page.xquery_context b.B.top_window)).Dynamic_context.static

let serve_module b ~uri source =
  Http_sim.register_doc b.B.http ~uri ~content_type:"application/xquery" source

let error_of f =
  match f () with
  | _ -> Alcotest.fail "expected an error"
  | exception Xq_error.Error e -> e

(* ---------- one writer: a compile that raises writes nothing ---------- *)

let one_writer_tests =
  [
    t "a syntax error after declarations leaves the fingerprint as it was" (fun () ->
        let static = Engine.default_static () in
        let before = SC.fingerprint static in
        let e =
          error_of (fun () ->
              Engine.compile ~static
                "declare namespace p = 'urn:p'; declare function local:f() { 1 }; \
                 declare variable $v := 41; 1 +")
        in
        check Alcotest.string "code" "XPST0003" e.Xq_error.code;
        check Alcotest.string "fingerprint" before (SC.fingerprint static));
    t "a missing second import leaves the fingerprint as it was" (fun () ->
        let static = Engine.default_static () in
        SC.set_module_resolver static (fun ~uri ~locations:_ ->
            if uri = "urn:a" then
              SC.Module_source "module namespace a = 'urn:a'; declare function a:f() { 1 };"
            else SC.Module_not_found);
        let before = SC.fingerprint static in
        let e =
          error_of (fun () ->
              Engine.compile ~static
                "import module namespace a = 'urn:a'; import module namespace b = 'urn:b'; a:f()")
        in
        check Alcotest.string "code" "XQST0059" e.Xq_error.code;
        check Alcotest.string "fingerprint" before (SC.fingerprint static);
        check Alcotest.bool "urn:a not imported" false (SC.is_imported static "urn:a"));
    t "install returns the program's and its imports' declarations in order" (fun () ->
        let static = Engine.default_static () in
        SC.set_module_resolver static (fun ~uri:_ ~locations:_ ->
            SC.Module_source
              "module namespace lib = 'urn:lib'; declare variable $lib:x := 1; \
               declare function lib:f() { $lib:x };");
        let c =
          Engine.compile ~static
            "declare variable $a := 0; import module namespace m = 'urn:lib'; \
             declare function local:g() { m:f() }; local:g()"
        in
        let name = function
          | Ast.P_variable (qn, _, _) -> "$" ^ Xmlb.Qname.to_string qn
          | Ast.P_function f -> Xmlb.Qname.to_string f.Ast.fname ^ "#"
          | _ -> "?"
        in
        check strings "declarations" [ "$a"; "$lib:x"; "lib:f#"; "local:g#" ]
          (List.map name c.Engine.decls);
        check Alcotest.string "runs" "1" (I.to_display_string (Engine.run c)));
    t "xqib parse prints a program whose import cannot be located" (fun () ->
        (* what the CLI's parse command runs *)
        let src = "import module namespace m = 'urn:m' at 'http://nowhere.example/m.xq'; m:f()" in
        let printed =
          Ast_printer.program_to_source (Parser.parse_program (Engine.default_static ()) src)
        in
        check Alcotest.bool "prints the import" true
          (Str.string_match (Str.regexp_string "import module") printed 0));
  ]

(* ---------- a page's scripts: each adds only its own prolog ---------- *)

let lib_uri = "http://libs.example/lib.xq"
let lib_source = {|module namespace lib = "urn:lib"; declare function lib:f() { "from lib" };|}

let page_tests =
  [
    t "a script that fails to parse adds none of its declarations" (fun () ->
        let b =
          load
            [
              "declare function local:f() { 1 }; declare variable $v := 41; 1 +";
              "browser:alert(string(local:f() + $v))";
            ]
        in
        check strings "no alert" [] (B.alerts b);
        check Alcotest.int "two errors" 2 (List.length b.B.script_errors));
    t "a global initializer runs once, in its own script" (fun () ->
        let b =
          load [ {|declare variable $a := browser:alert("init"); 1|}; "2"; "3" ]
        in
        check strings "one alert" [ "init" ] (B.alerts b));
    t "10 scripts of 5 functions compile 50 functions and run 10 initializers" (fun () ->
        let script i =
          String.concat ""
            (List.init 5 (fun j -> Printf.sprintf "declare function local:f%d_%d() { %d };" i j j))
          ^ Printf.sprintf {|declare variable $v%d := browser:alert("v%d"); ()|} i i
        in
        let fns = Obs.Metrics.counter "xquery.compile.fns" in
        Xmlb.Ablation.with_
          { Xmlb.Ablation.current with query_cache = false; compiled_eval = true }
          (fun () ->
            let before = Obs.Metrics.value fns in
            let b = load (List.init 10 script) in
            check Alcotest.int "functions compiled" 50 (Obs.Metrics.value fns - before);
            check Alcotest.int "initializers run" 10 (List.length (B.alerts b));
            check strings "no errors" [] b.B.script_errors));
    t "an imported module's own prefix stays unbound in the page" (fun () ->
        let b =
          load
            ~setup:(fun b -> serve_module b ~uri:lib_uri lib_source)
            [
              Printf.sprintf {|import module namespace m = "urn:lib" at "%s"; browser:alert(m:f())|}
                lib_uri;
              "browser:alert(lib:f())";
            ]
        in
        check strings "only the import's alert" [ "from lib" ] (B.alerts b);
        check Alcotest.int "lib: unbound" 1 (List.length b.B.script_errors));
    t "a failed import is not marked imported; once the host is up it works" (fun () ->
        let import =
          Printf.sprintf {|import module namespace m = "urn:lib" at "%s"; m:f()|} lib_uri
        in
        let b = load [ import ] in
        check Alcotest.int "import failed" 1 (List.length b.B.script_errors);
        check Alcotest.bool "not imported" false (SC.is_imported (page_static b) "urn:lib");
        serve_module b ~uri:lib_uri lib_source;
        check Alcotest.string "imported now" "from lib"
          (I.to_display_string (Xqib.Page.run_xquery b b.B.top_window import)));
    t "a body-less script runs only its own local:main" (fun () ->
        let b =
          load
            [
              {|declare function local:main() { browser:alert("main") };|};
              "declare function local:other() { 1 };";
            ]
        in
        check strings "main ran once" [ "main" ] (B.alerts b));
  ]

(* ---------- faults that escaped as untyped exceptions ---------- *)

let fault_tests =
  [
    t "a navigation to a page that does not parse is a script error" (fun () ->
        let b =
          load
            ~setup:(fun b -> Http_sim.register_doc b.B.http ~uri:"http://bad.example/x" "<html><body>")
            [ {|browser:windowOpen("http://bad.example/x")|}; {|browser:alert("next")|} ]
        in
        check strings "the next script ran" [ "next" ] (B.alerts b);
        match b.B.script_errors with
        | [ e ] ->
            check Alcotest.bool ("names the page and position: " ^ e) true
              (Str.string_match
                 (Str.regexp_string
                    "[SEBR0404] cannot load http://bad.example/x: line 1, col 13:")
                 e 0)
        | es -> Alcotest.failf "expected one error, got %d" (List.length es));
    t "a failed same-window navigation keeps the old page's scripts" (fun () ->
        let b =
          load
            ~setup:(fun b -> Http_sim.register_doc b.B.http ~uri:"http://bad.example/x" "<html><body>")
            [
              "declare function local:f() { 'still here' }; ()";
              {|replace value of node browser:self()/location/href with "http://bad.example/x"|};
              "browser:alert(local:f())";
            ]
        in
        check strings "later script sees earlier functions" [ "still here" ] (B.alerts b);
        check Alcotest.int "one error" 1 (List.length b.B.script_errors);
        check Alcotest.string "context kept" "still here"
          (I.to_display_string (Xqib.Page.run_xquery b b.B.top_window "local:f()")));
    t "a port number out of range is a syntax error" (fun () ->
        let e =
          error_of (fun () ->
              Engine.compile
                {|module namespace m = "urn:m" port:99999999999999999999999;
                  declare function m:f() { 1 };|})
        in
        check Alcotest.string "code" "XPST0003" e.Xq_error.code);
    t "a service descriptor with a non-integer arity fails the import" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://svc.example/wsdl"
          {|<service xmlns="" ns="urn:s"><function name="f" arity="x"/></service>|};
        let static = Engine.default_static () in
        SC.set_module_resolver static (Web_service.module_resolver http);
        let e =
          error_of (fun () ->
              Engine.compile ~static
                {|import module namespace s = "urn:s" at "http://svc.example/wsdl"; s:f()|})
        in
        check Alcotest.string "code" "XQST0059" e.Xq_error.code;
        check Alcotest.bool ("names the location: " ^ e.Xq_error.message) true
          (Str.string_match (Str.regexp ".*http://svc\\.example/wsdl") e.Xq_error.message 0));
    t "a module location that serves a page that does not parse fails the import" (fun () ->
        let http = Http_sim.create (Virtual_clock.create ()) in
        Http_sim.register_doc http ~uri:"http://svc.example/wsdl" "<html><body>";
        let static = Engine.default_static () in
        SC.set_module_resolver static (Web_service.module_resolver http);
        let e =
          error_of (fun () ->
              Engine.compile ~static
                {|import module namespace s = "urn:s" at "http://svc.example/wsdl"; s:f()|})
        in
        check Alcotest.string "code" "XQST0059" e.Xq_error.code);
  ]

(* ---------- property: broken scripts change nothing else ---------- *)

(* A fragment declares a function and a variable named after its
   position, whose initializer alerts, and writes to the body. A broken
   fragment ends in a syntax error after its declarations, or imports a
   library module from a host that is down. *)
type fragment = Plain | Syntax_error | Import of bool (* host up *)

let fragment_source i kind =
  let import =
    match kind with
    | Import _ ->
        Printf.sprintf {|import module namespace m%d = "urn:lib%d" at "http://lib%d.example/m.xq";|}
          i i i
    | _ -> ""
  in
  let call = match kind with Import _ -> Printf.sprintf "m%d:g()" i | _ -> string_of_int i in
  let body =
    match kind with
    | Syntax_error -> "1 +"
    | _ -> Printf.sprintf {|insert node <p>{local:f%d()}-{$v%d}</p> into //body|} i i
  in
  Printf.sprintf
    {|%s declare function local:f%d() { %s }; declare variable $v%d := (browser:alert("v%d"), %d); %s|}
    import i call i i i body

(* the library module a fragment imports: its own prefix, a global
   that alerts and the function the fragment calls *)
let library_source i =
  Printf.sprintf
    {|module namespace lib = "urn:lib%d"; declare variable $lib:x := (browser:alert("lib%d"), %d);
      declare function lib:g() { $lib:x * 10 };|}
    i i i

let broken = function Syntax_error | Import false -> true | Plain | Import true -> false

let run_page fragments =
  let b = B.create () in
  List.iter
    (fun (i, kind) ->
      if kind = Import true then
        serve_module b ~uri:(Printf.sprintf "http://lib%d.example/m.xq" i) (library_source i))
    fragments;
  (* a first script that always compiles, so both pages have a context *)
  Xqib.Page.load b
    (page
       ({|declare variable $start := browser:alert("start"); ()|}
       :: List.map (fun (i, kind) -> fragment_source i kind) fragments));
  let body = List.hd (Dom.get_elements_by_local_name (B.document b) "body") in
  ( (B.alerts b, Dom.serialize body, SC.fingerprint (page_static b)),
    List.length b.B.script_errors )

let fragments_gen =
  Q.Gen.(
    map
      (List.mapi (fun i k -> (i, k)))
      (list_size (int_range 1 6)
         (frequency
            [ (3, return Plain); (2, return Syntax_error); (2, map (fun up -> Import up) bool) ])))

let print_fragments fs =
  String.concat "\n"
    (List.map
       (fun (i, kind) ->
         fragment_source i kind
         ^ match kind with Import up -> if up then " (: host up :)" else " (: host down :)" | _ -> "")
       fs)

let property =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:100 ~long_factor:20
       ~name:"a page with broken scripts behaves like the page of its working scripts"
       (Q.make ~print:print_fragments fragments_gen)
       (fun fragments ->
         let seen, errors = run_page fragments in
         let working, working_errors =
           run_page (List.filter (fun (_, kind) -> not (broken kind)) fragments)
         in
         seen = working && working_errors = 0
         && errors = List.length (List.filter (fun (_, kind) -> broken kind) fragments)))

let suite = one_writer_tests @ page_tests @ fault_tests @ [ property ]
