open Xmlb

type compiled = {
  prog : Ast.prog;
  static : Static_context.t;
  decls : Ast.prolog_decl list;
      (* the functions and variables [install] added to [static] *)
  code : Compile.prog_code option;
      (* closure code of the body and of [decls]; None when compiled
         evaluation was off at compile time *)
}

let default_static () = Static_context.create ()

(* [load] is the step that can raise (engine.mli); [write] runs once
   every import has loaded. *)
let install (prog : Ast.prog) static =
  let loaded = Hashtbl.create 4 and added = ref [] in
  let rec load (prog : Ast.prog) =
    List.iter
      (function
        | Ast.P_module_import { uri; locations; _ }
          when not (Static_context.is_imported static uri || Hashtbl.mem loaded uri) -> (
            match Static_context.resolve_module static ~uri ~locations with
            | Static_context.Module_source src ->
                let lib = Parser.parse_program static src in
                (match lib.Ast.library_module with
                | Some m when not (String.equal m.Ast.mod_uri uri) ->
                    Xq_error.raise_error "XQST0059"
                      "module at %S declares namespace %S, expected %S"
                      (String.concat "," locations) m.Ast.mod_uri uri
                | _ -> ());
                Hashtbl.add loaded uri (fun () -> write ~own:false lib);
                load lib
            | Static_context.Module_external fns ->
                Hashtbl.add loaded uri (fun () ->
                    List.iter
                      (fun (qn, arity, impl) ->
                        Static_context.register_external static qn ~arity impl)
                      fns)
            | Static_context.Module_not_found ->
                Xq_error.raise_error "XQST0059" "cannot locate module %S" uri)
        | _ -> ())
      prog.Ast.prolog
  and write ~own (prog : Ast.prog) =
    List.iter
      (fun decl ->
        match decl with
        | Ast.P_variable (qn, st, e) ->
            Static_context.declare_variable static qn st e;
            added := decl :: !added
        | Ast.P_function f ->
            Static_context.declare_function static f;
            added := decl :: !added
        | Ast.P_module_import { prefix; uri; _ } -> (
            (match prefix with
            | Some prefix when own -> Static_context.declare_namespace static ~prefix ~uri
            | _ -> ());
            match Hashtbl.find_opt loaded uri with
            | Some write_module when not (Static_context.is_imported static uri) ->
                Static_context.mark_imported static uri;
                write_module ()
            | _ -> ())
        | _ when not own -> ()
        | Ast.P_namespace (prefix, uri) -> Static_context.declare_namespace static ~prefix ~uri
        | Ast.P_default_element_ns uri -> Static_context.declare_default_element_ns static uri
        | Ast.P_default_function_ns uri ->
            Static_context.declare_default_function_ns static uri
        | Ast.P_boundary_space_preserve b ->
            Static_context.set_boundary_space_preserve static b
        | Ast.P_option (qn, v) -> Static_context.set_option static qn v)
      prog.Ast.prolog
  in
  load prog;
  write ~own:true prog;
  List.rev !added

let source_bytes = Obs.Metrics.counter "engine.source-bytes"

(* Parsing and optimizing touch no context, and [install] writes only
   once every import has loaded, so a compile that raises leaves
   [static] as it was. *)
let compile ?(optimize = true) ?static source =
  Obs.Trace.with_span "engine.compile" @@ fun () ->
  let static = match static with Some s -> s | None -> default_static () in
  let prog =
    Obs.Trace.with_span "engine.parse" (fun () -> Parser.parse_program static source)
  in
  let prog =
    if optimize then
      Obs.Trace.with_span "engine.optimize" (fun () -> Optimizer.optimize prog)
    else prog
  in
  let decls = Obs.Trace.with_span "engine.install" (fun () -> install prog static) in
  Obs.Metrics.add source_bytes (String.length source);
  let code =
    if Ablation.current.compiled_eval then
      Some
        (Obs.Trace.with_span "engine.compile-closures" (fun () ->
             Compile.compile_prog static prog decls))
    else None
  in
  { prog; static; decls; code }

(* ------------------------------------------------------------------ *)
(* compiled-query cache                                                *)

(* An entry keeps only what a hit reads: the program and its closure
   code. A hit installs the program in the caller's static context,
   so the context the source was first compiled in — whose browser
   functions close over that page — is not kept. *)
let query_cache : (Ast.prog * Compile.prog_code option) Query_cache.t =
  Query_cache.create ~name:"query-cache" ~capacity:256 ()

(* Switches such as join planning and compiled evaluation change what
   [compile] produces, so the whole ablation record keys the cache:
   changing any field would otherwise serve stale artifacts. *)
let cache_key ~optimize fingerprint source =
  (if optimize then "O1|" else "O0|")
  ^ Ablation.key Ablation.current ^ "|" ^ fingerprint ^ "|" ^ source

let compile_cached ?(optimize = true) ?static source =
  if not Ablation.current.query_cache then compile ~optimize ?static source
  else begin
    let static = match static with Some s -> s | None -> default_static () in
    (* fingerprint before parsing: the key captures the context the
       source is compiled *against*, not the one it produces *)
    let fp =
      Obs.Trace.with_span "engine.fingerprint" (fun () ->
          Static_context.fingerprint static)
    in
    let key = cache_key ~optimize fp source in
    match Query_cache.find query_cache key with
    | Some (prog, code) ->
        let decls = Obs.Trace.with_span "engine.install" (fun () -> install prog static) in
        { prog; static; decls; code }
    | None ->
        let c = compile ~optimize ~static source in
        Query_cache.add query_cache key ~cost:(String.length source)
          (c.prog, c.code);
        c
  end

(* The code a run executes: the closure code, or the reference
   evaluator's when compiled evaluation is off (then no function has
   compiled code: calls walk the declarations). *)
let code compiled =
  match compiled.code with
  | Some code when Ablation.current.compiled_eval -> code
  | _ ->
      let reference e ctx = Eval.eval ctx e in
      {
        Compile.body = Option.map reference compiled.prog.Ast.body;
        fns = [];
        globals =
          List.filter_map
            (function
              | Ast.P_variable (qn, st, init) -> Some (qn, st, Option.map reference init)
              | _ -> None)
            compiled.decls;
      }

let install_functions ctx compiled =
  List.iter
    (fun (key, impl) -> Hashtbl.replace ctx.Dynamic_context.compiled_fns key impl)
    (code compiled).Compile.fns

let expression static e =
  if Ablation.current.compiled_eval then Compile.compile_expr static e
  else fun ctx -> Eval.eval ctx e

let bind_globals ?(bindings = []) ?(strict = true) ctx compiled =
  List.iter
    (fun (qn, st, init) ->
      let value =
        match init with
        | Some f -> Some (f ctx)
        | None -> (
            match List.find_opt (fun (b, _) -> Qname.equal b qn) bindings with
            | Some (_, v) -> Some v
            | None when strict ->
                Xq_error.raise_error "XPDY0002"
                  "external variable $%s has no value" (Qname.to_string qn)
            | None -> None)
      in
      Option.iter
        (fun v ->
          Dynamic_context.bind_global ctx qn
            (match st with
            | Some st -> Seq_type.coerce ~what:("$" ^ Qname.to_string qn) st v
            | None -> v))
        value)
    (code compiled).Compile.globals

(* Install and initialisation: the compiled function bodies go in
   before anything can call them (global-variable initializers may). *)
let initialise ?bindings ?strict ctx compiled =
  install_functions ctx compiled;
  bind_globals ?bindings ?strict ctx compiled

let context_for ?host ?context_item ?(bindings = []) compiled =
  let ctx = Dynamic_context.create ?host compiled.static in
  let ctx =
    match context_item with
    | Some item -> Dynamic_context.with_focus ctx item ~position:1 ~size:1
    | None -> ctx
  in
  List.iter (fun (qn, v) -> Dynamic_context.bind_global ctx qn v) bindings;
  initialise ~bindings ctx compiled;
  ctx

let add_script ctx source =
  let saved = Dynamic_context.save ctx in
  match
    let compiled = compile_cached ~static:ctx.Dynamic_context.static source in
    initialise ~strict:false ctx compiled;
    compiled
  with
  | compiled -> compiled
  | exception e ->
      Dynamic_context.restore ctx saved;
      raise e

let eval_body ctx compiled =
  match (code compiled).Compile.body with
  | None -> []
  | Some f -> (
      try f ctx with
      | Eval.Exit_with v -> v
      | Eval.Break_loop | Eval.Continue_loop ->
          Xq_error.raise_error "XSST0010"
            "break/continue outside of a while loop")

let run ?host ?context_item ?bindings compiled =
  Obs.Trace.with_span "engine.run" @@ fun () ->
  let ctx =
    Obs.Trace.with_span "engine.context" (fun () ->
        context_for ?host ?context_item ?bindings compiled)
  in
  let result =
    Obs.Trace.with_span "engine.eval" (fun () -> eval_body ctx compiled)
  in
  Pul.apply ctx.Dynamic_context.pul;
  result

let eval_string ?optimize ?static ?host ?context_item ?bindings source =
  run ?host ?context_item ?bindings (compile_cached ?optimize ?static source)

let call = Eval.call_function
