open Xmlb
module Ast = Xquery.Ast

let err fmt = Xquery.Xq_error.raise_error "SEMG0001" fmt

(* rewrite fn:doc($u) → rest:get(concat(doc_base, $u)) *)
let rec rewrite_doc ~doc_base (e : Ast.expr) : Ast.expr =
  let g = rewrite_doc ~doc_base in
  match e with
  | Ast.E_call ({ Qname.local = "doc"; uri = Some u; _ }, [ arg ])
    when String.equal u Qname.Ns.fn ->
      let uri_expr =
        match arg with
        | Ast.E_literal (Xdm_atomic.String s) ->
            Ast.E_literal (Xdm_atomic.String (doc_base ^ s))
        | arg ->
            Ast.E_call
              ( Qname.make ~uri:Qname.Ns.fn "concat",
                [ Ast.E_literal (Xdm_atomic.String doc_base); g arg ] )
      in
      Ast.E_call (Qname.make ~uri:Rest.namespace ~prefix:"rest" "get", [ uri_expr ])
  | e -> map_expr g e

(* structural map over one level of the AST *)
and map_expr g (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.E_literal _ | Ast.E_var _ | Ast.E_context_item | Ast.E_root
  | Ast.E_text_literal _ ->
      e
  | Ast.E_sequence es -> Ast.E_sequence (List.map g es)
  | Ast.E_range (a, b) -> Ast.E_range (g a, g b)
  | Ast.E_if (c, t, f) -> Ast.E_if (g c, g t, g f)
  | Ast.E_or (a, b) -> Ast.E_or (g a, g b)
  | Ast.E_and (a, b) -> Ast.E_and (g a, g b)
  | Ast.E_value_comp (op, a, b) -> Ast.E_value_comp (op, g a, g b)
  | Ast.E_general_comp (op, a, b) -> Ast.E_general_comp (op, g a, g b)
  | Ast.E_node_comp (op, a, b) -> Ast.E_node_comp (op, g a, g b)
  | Ast.E_ftcontains (a, sel) -> Ast.E_ftcontains (g a, sel)
  | Ast.E_arith (op, a, b) -> Ast.E_arith (op, g a, g b)
  | Ast.E_unary_minus a -> Ast.E_unary_minus (g a)
  | Ast.E_union (a, b) -> Ast.E_union (g a, g b)
  | Ast.E_intersect (a, b) -> Ast.E_intersect (g a, g b)
  | Ast.E_except (a, b) -> Ast.E_except (g a, g b)
  | Ast.E_instance_of (a, st) -> Ast.E_instance_of (g a, st)
  | Ast.E_treat_as (a, st) -> Ast.E_treat_as (g a, st)
  | Ast.E_castable_as (a, ty, o) -> Ast.E_castable_as (g a, ty, o)
  | Ast.E_cast_as (a, ty, o) -> Ast.E_cast_as (g a, ty, o)
  | Ast.E_step (axis, test, preds) -> Ast.E_step (axis, test, List.map g preds)
  | Ast.E_path (a, b) -> Ast.E_path (g a, g b)
  | Ast.E_filter (a, preds) -> Ast.E_filter (g a, List.map g preds)
  | Ast.E_call (qn, args) -> Ast.E_call (qn, List.map g args)
  | Ast.E_ordered a -> Ast.E_ordered (g a)
  | Ast.E_unordered a -> Ast.E_unordered (g a)
  | Ast.E_enclosed a -> Ast.E_enclosed (g a)
  | Ast.E_flwor { clauses; where; order; return } ->
      Ast.E_flwor
        {
          clauses =
            List.map
              (function
                | Ast.For_clause { var; pos_var; var_type; source } ->
                    Ast.For_clause { var; pos_var; var_type; source = g source }
                | Ast.Let_clause { var; var_type; value } ->
                    Ast.Let_clause { var; var_type; value = g value })
              clauses;
          where = Option.map g where;
          order = List.map (fun o -> { o with Ast.key = g o.Ast.key }) order;
          return = g return;
        }
  | Ast.E_hash_join j ->
      Ast.E_hash_join
        {
          j with
          jleft_source = g j.jleft_source;
          jleft_key = g j.jleft_key;
          jright_source = g j.jright_source;
          jright_key = g j.jright_key;
          jwhere = Option.map g j.jwhere;
          jorder = List.map (fun o -> { o with Ast.key = g o.Ast.key }) j.jorder;
          jreturn = g j.jreturn;
        }
  | Ast.E_quantified (q, binds, body) ->
      Ast.E_quantified (q, List.map (fun (v, t, e) -> (v, t, g e)) binds, g body)
  | Ast.E_typeswitch (op, cases, (dv, db)) ->
      Ast.E_typeswitch
        ( g op,
          List.map (fun c -> { c with Ast.case_body = g c.Ast.case_body }) cases,
          (dv, g db) )
  | Ast.E_direct_element { name; attributes; children } ->
      Ast.E_direct_element
        {
          name;
          attributes =
            List.map
              (fun (an, parts) ->
                ( an,
                  List.map
                    (function
                      | Ast.A_text t -> Ast.A_text t
                      | Ast.A_enclosed e -> Ast.A_enclosed (g e))
                    parts ))
              attributes;
          children = List.map g children;
        }
  | Ast.E_computed_element (a, b) -> Ast.E_computed_element (g a, g b)
  | Ast.E_computed_attribute (a, b) -> Ast.E_computed_attribute (g a, g b)
  | Ast.E_computed_text a -> Ast.E_computed_text (g a)
  | Ast.E_computed_comment a -> Ast.E_computed_comment (g a)
  | Ast.E_computed_pi (a, b) -> Ast.E_computed_pi (g a, g b)
  | Ast.E_computed_document a -> Ast.E_computed_document (g a)
  | Ast.E_insert (p, a, b) -> Ast.E_insert (p, g a, g b)
  | Ast.E_delete a -> Ast.E_delete (g a)
  | Ast.E_replace { value_of; target; source } ->
      Ast.E_replace { value_of; target = g target; source = g source }
  | Ast.E_rename (a, b) -> Ast.E_rename (g a, g b)
  | Ast.E_transform (binds, m, r) ->
      Ast.E_transform (List.map (fun (v, e) -> (v, g e)) binds, g m, g r)
  | Ast.E_block stmts ->
      Ast.E_block
        (List.map
           (function
             | Ast.S_var_decl (v, t, e) -> Ast.S_var_decl (v, t, Option.map g e)
             | Ast.S_assign (v, e) -> Ast.S_assign (v, g e)
             | Ast.S_while (c, body) ->
                 Ast.S_while
                   ( g c,
                     List.map
                       (function Ast.S_expr e -> Ast.S_expr (g e) | s -> s)
                       body )
             | (Ast.S_break | Ast.S_continue) as st -> st
             | Ast.S_exit_with e -> Ast.S_exit_with (g e)
             | Ast.S_expr e -> Ast.S_expr (g e))
           stmts)
  | Ast.E_event_attach { event; binding; target; listener } ->
      Ast.E_event_attach { event = g event; binding; target = g target; listener }
  | Ast.E_event_detach { event; target; listener } ->
      Ast.E_event_detach { event = g event; target = g target; listener }
  | Ast.E_event_trigger { event; target } ->
      Ast.E_event_trigger { event = g event; target = g target }
  | Ast.E_set_style { property; target; value } ->
      Ast.E_set_style { property = g property; target = g target; value = g value }
  | Ast.E_get_style { property; target } ->
      Ast.E_get_style { property = g property; target = g target }

(* Replace dynamic children with placeholder slots; collect the moved
   expressions as (slot id, expr) pairs. *)
let extract_dynamic body =
  let slots = ref [] in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "xqib-slot-%d" !n
  in
  let placeholder id =
    Ast.E_direct_element
      {
        name = Qname.make "span";
        attributes = [ (Qname.make "id", [ Ast.A_text id ]) ];
        children = [];
      }
  in
  let rec walk (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.E_direct_element { name; attributes; children }
      when List.for_all
             (fun (_, parts) ->
               List.for_all
                 (function Ast.A_text _ -> true | Ast.A_enclosed _ -> false)
                 parts)
             attributes ->
        (* static element shell: recurse into children *)
        Ast.E_direct_element { name; attributes; children = List.map walk children }
    | Ast.E_text_literal _ -> e
    | dynamic ->
        let id = fresh () in
        slots := (id, dynamic) :: !slots;
        placeholder id
  in
  let body' =
    match body with
    | Ast.E_direct_element _ -> walk body
    | _ -> err "page body must be an element constructor"
  in
  (body', List.rev !slots)

let slot_insert (id, expr) =
  (* insert nodes (expr) into //*[@id = 'slot'] *)
  let target =
    Ast.E_path
      ( Ast.E_path
          ( Ast.E_root,
            Ast.E_step (Ast.Descendant_or_self, Ast.Kind_test Ast.Any_kind, []) ),
        Ast.E_step
          ( Ast.Child,
            Ast.Wildcard,
            [
              Ast.E_general_comp
                ( Ast.Eq,
                  Ast.E_step (Ast.Attribute_axis, Ast.Name_test (Qname.make "id"), []),
                  Ast.E_literal (Xdm_atomic.String id) );
            ] ) )
  in
  Ast.E_insert (Ast.Into, expr, target)

(* Evaluate the static skeleton to a DOM and inject the client script
   into <head> (created if missing), then serialize the page. *)
let emit_page ~script_text skeleton =
  let static = Xquery.Engine.default_static () in
  let ctx = Xquery.Dynamic_context.create static in
  let doc_el =
    match Xquery.Eval.eval ctx skeleton with
    | [ Xdm_item.Node n ] -> n
    | _ -> err "page skeleton did not evaluate to a single element"
  in
  (match script_text with
  | None -> ()
  | Some text ->
      let script =
        Dom.create_element
          ~attrs:[ (Qname.make "type", "text/xqueryp") ]
          (Qname.make "script")
      in
      Dom.fill script ~attrs:[] [ Dom.create_text ("\n" ^ text ^ "\n") ];
      let head =
        match Dom.get_elements_by_local_name doc_el "head" with
        | h :: _ when not (Dom.equal h doc_el) -> h
        | _ ->
            (* the script tag is created if the head does not exist (§6.1) *)
            let h = Dom.create_element (Qname.make "head") in
            Dom.insert_first ~parent:doc_el h;
            h
      in
      Dom.append_child ~parent:head script);
  Dom.serialize doc_el

let migrate ~doc_base source =
  let static = Xquery.Engine.default_static () in
  let prog = Xquery.Parser.parse_program static source in
  let body =
    match prog.Ast.body with
    | Some b -> b
    | None -> err "server page has no body expression"
  in
  let skeleton, slots = extract_dynamic body in
  if slots = [] then emit_page ~script_text:None skeleton
  else begin
    let inserts =
      List.map (fun s -> rewrite_doc ~doc_base (slot_insert s)) slots
    in
    let prolog =
      List.map
        (function
          | Ast.P_function f ->
              Ast.P_function
                { f with Ast.body = Option.map (rewrite_doc ~doc_base) f.Ast.body }
          | Ast.P_variable (v, t, e) ->
              Ast.P_variable (v, t, Option.map (rewrite_doc ~doc_base) e)
          | d -> d)
        prog.Ast.prolog
    in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "declare namespace rest = \"%s\";\n" Rest.namespace);
    List.iter
      (fun d ->
        Buffer.add_string buf (Xquery.Ast_printer.prolog_decl_to_source d);
        Buffer.add_string buf ";\n")
      prolog;
    (* the client code runs as a sequential local:main() (the paper's
       Â§5.1 model): each insert's effects are visible to the next
       statement, so event registrations see inserted elements *)
    let main_decl =
      Ast.P_function
        {
          Ast.fname = Qname.make ~uri:Qname.Ns.local ~prefix:"local" "main";
          params = [];
          return_type = None;
          body = Some (Ast.E_block (List.map (fun i -> Ast.S_expr i) inserts));
          kind = Ast.F_sequential;
        }
    in
    Buffer.add_string buf (Xquery.Ast_printer.prolog_decl_to_source main_decl);
    Buffer.add_string buf ";\n";
    Buffer.add_string buf "local:main()";
    emit_page ~script_text:(Some (Buffer.contents buf)) skeleton
  end

let migrate_server_page server ~path ~client_path =
  match App_server.page_source server ~path with
  | None -> err "no XQuery page registered at %s" path
  | Some source ->
      let doc_base = Doc_store.uri_of ~host:(App_server.host server) ~name:"" in
      let client = migrate ~doc_base source in
      App_server.add_static_page server ~path:client_path client;
      client
