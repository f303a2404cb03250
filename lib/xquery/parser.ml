open Xmlb
module L = Lexer

(* The parser reads the static context once, when it starts, and keeps
   the effects of the prolog it reads in its own state: it writes
   nothing to the context and loads no module. *)
type state = {
  lx : L.t;
  mutable env : Qname.Env.t;
  mutable default_fun_ns : string;
  mutable boundary_preserve : bool;
}

let start sctx source =
  {
    lx = L.create source;
    env = Static_context.ns_env sctx;
    default_fun_ns = Static_context.default_function_ns sctx;
    boundary_preserve = Static_context.boundary_space_preserve sctx;
  }

let fail_with code st fmt =
  let line, col = L.position st.lx in
  Printf.ksprintf
    (fun m -> Xq_error.raise_error code "line %d, col %d: %s" line col m)
    fmt

let fail st fmt = fail_with Xq_error.syntax st fmt

(* character data of a direct constructor, references expanded *)
let unescape st s =
  try Xml_escape.unescape s with
  | Failure m -> fail st "%s" m
  | Xml_escape.Invalid_char_ref m -> fail_with "XQST0090" st "%s" m

let peek st = L.peek st.lx
let next st = L.next st.lx

let peek2 st =
  let snap = L.save st.lx in
  let _ = L.next st.lx in
  let t = L.peek st.lx in
  L.restore st.lx snap;
  t

let expect st tok what =
  let got = next st in
  if got <> tok then fail st "expected %s, found %s" what (L.token_to_string got)

let accept st tok = if peek st = tok then (ignore (next st); true) else false

(* Keyword = an unprefixed name token with the given text. *)
let peek_kw st =
  match peek st with L.T_name n -> Some n | _ -> None

let accept_kw st kw =
  match peek st with
  | L.T_name n when String.equal n kw ->
      ignore (next st);
      true
  | _ -> false

let expect_kw st kw =
  if not (accept_kw st kw) then
    fail st "expected keyword %S, found %s" kw (L.token_to_string (peek st))

let expect_string st =
  match next st with
  | L.T_string s -> s
  | t -> fail st "expected a string literal, found %s" (L.token_to_string t)

let expect_ncname st =
  match next st with
  | L.T_name n -> n
  | t -> fail st "expected a name, found %s" (L.token_to_string t)

(* Reserved unprefixed function names (cannot be user function calls). *)
let reserved_function_names =
  [
    "attribute"; "comment"; "document-node"; "element"; "empty-sequence";
    "if"; "item"; "node"; "processing-instruction"; "schema-attribute";
    "schema-element"; "text"; "typeswitch"; "while";
  ]

(* ---------------- name resolution ---------------- *)

let resolve_with st ~use_default qn =
  match qn.Qname.uri with
  | Some _ -> qn
  | None -> (
      match qn.Qname.prefix with
      | None ->
          if use_default then Qname.with_uri qn (Qname.Env.default st.env)
          else qn
      | Some p -> (
          match Qname.Env.lookup st.env p with
          | Some uri -> Qname.with_uri qn (Some uri)
          | None -> fail st "unbound namespace prefix %S" p))

let resolve_element st qn = resolve_with st ~use_default:true qn
let resolve_other st qn = resolve_with st ~use_default:false qn

let resolve_function st qn =
  match (qn.Qname.uri, qn.Qname.prefix) with
  | Some _, _ -> qn
  | None, None -> Qname.with_uri qn (Some st.default_fun_ns)
  | None, Some _ -> resolve_other st qn

let qname_of_token st = function
  | L.T_name n -> Qname.make n
  | L.T_qname (p, l) -> Qname.make ~prefix:p l
  | t -> fail st "expected a QName, found %s" (L.token_to_string t)

let expect_qname st = qname_of_token st (next st)

let var_name st =
  match next st with
  | L.T_var (local, prefix) -> resolve_other st (Qname.make ?prefix local)
  | t -> fail st "expected a variable name, found %s" (L.token_to_string t)

(* ---------------- sequence types ---------------- *)

let rec parse_kind_test st kw : Ast.kind_test =
  ignore (next st) (* the keyword *);
  expect st L.T_lpar "'('";
  let kt =
    match kw with
    | "node" -> Ast.Any_kind
    | "text" -> Ast.Text_kind
    | "comment" -> Ast.Comment_kind
    | "document-node" ->
        (* allow document-node(element(...)) — we ignore the inner test *)
        (match peek st with
        | L.T_name "element" -> ignore (parse_kind_test st "element")
        | _ -> ());
        Ast.Document_kind
    | "processing-instruction" -> (
        match peek st with
        | L.T_name n ->
            ignore (next st);
            Ast.Pi_kind (Some n)
        | L.T_string s ->
            ignore (next st);
            Ast.Pi_kind (Some s)
        | _ -> Ast.Pi_kind None)
    | "element" | "schema-element" -> (
        match peek st with
        | L.T_rpar | L.T_star -> (
            if peek st = L.T_star then ignore (next st);
            Ast.Element_kind None)
        | t ->
            let qn = resolve_element st (qname_of_token st (next st)) in
            ignore t;
            (* optional type name: element(name, type) — ignore the type *)
            if accept st L.T_comma then ignore (next st);
            Ast.Element_kind (Some qn))
    | "attribute" | "schema-attribute" -> (
        match peek st with
        | L.T_rpar | L.T_star -> (
            if peek st = L.T_star then ignore (next st);
            Ast.Attribute_kind None)
        | _ ->
            let qn = resolve_other st (expect_qname st) in
            if accept st L.T_comma then ignore (next st);
            Ast.Attribute_kind (Some qn))
    | _ -> fail st "unknown kind test %s()" kw
  in
  expect st L.T_rpar "')'";
  kt

let kind_test_keywords =
  [
    "node"; "text"; "comment"; "processing-instruction"; "element"; "attribute";
    "document-node"; "schema-element"; "schema-attribute";
  ]

let atomic_type_of_qname st qn =
  let qn = resolve_element st qn in
  let in_xs =
    match qn.Qname.uri with
    | Some u -> String.equal u Qname.Ns.xs
    | None -> qn.Qname.prefix = None
  in
  if not in_xs then fail st "unknown atomic type %s" (Qname.to_string qn)
  else
    match Xdm_atomic.type_of_name qn.Qname.local with
    | Some t -> t
    | None -> fail st "unknown atomic type xs:%s" qn.Qname.local

let parse_occurrence st : Ast.occurrence =
  match peek st with
  | L.T_question ->
      ignore (next st);
      Ast.Occ_optional
  | L.T_star ->
      ignore (next st);
      Ast.Occ_star
  | L.T_plus ->
      ignore (next st);
      Ast.Occ_plus
  | _ -> Ast.Occ_one

let parse_sequence_type st : Ast.seq_type =
  match peek st with
  | L.T_name "empty-sequence" when peek2 st = L.T_lpar ->
      ignore (next st);
      expect st L.T_lpar "'('";
      expect st L.T_rpar "')'";
      Ast.St_empty
  | L.T_name "item" when peek2 st = L.T_lpar ->
      ignore (next st);
      expect st L.T_lpar "'('";
      expect st L.T_rpar "')'";
      Ast.St (Ast.It_item, parse_occurrence st)
  | L.T_name kw when List.mem kw kind_test_keywords && peek2 st = L.T_lpar ->
      let kt = parse_kind_test st kw in
      Ast.St (Ast.It_kind kt, parse_occurrence st)
  | L.T_name _ | L.T_qname _ ->
      let qn = expect_qname st in
      let ty = atomic_type_of_qname st qn in
      Ast.St (Ast.It_atomic ty, parse_occurrence st)
  | t -> fail st "expected a sequence type, found %s" (L.token_to_string t)

let parse_single_type st =
  let qn = expect_qname st in
  let ty = atomic_type_of_qname st qn in
  let optional = accept st L.T_question in
  (ty, optional)

(* ---------------- expressions ---------------- *)

(* [//] abbreviates this step *)
let dos_step = Ast.E_step (Ast.Descendant_or_self, Ast.Kind_test Ast.Any_kind, [])

let rec parse_expr st : Ast.expr =
  let first = parse_expr_single st in
  if peek st = L.T_comma then begin
    let items = ref [ first ] in
    while accept st L.T_comma do
      items := parse_expr_single st :: !items
    done;
    Ast.E_sequence (List.rev !items)
  end
  else first

and parse_expr_single st : Ast.expr =
  match (peek st, peek2 st) with
  | L.T_name ("for" | "let"), L.T_var _ -> parse_flwor st
  | L.T_name ("some" | "every"), L.T_var _ -> parse_quantified st
  | L.T_name "typeswitch", L.T_lpar -> parse_typeswitch st
  | L.T_name "if", L.T_lpar -> parse_if st
  | L.T_name "insert", L.T_name ("node" | "nodes") -> parse_insert st
  | L.T_name "delete", L.T_name ("node" | "nodes") -> parse_delete st
  | L.T_name "replace", L.T_name ("node" | "value") -> parse_replace st
  | L.T_name "rename", L.T_name "node" -> parse_rename st
  | L.T_name "copy", L.T_var _ -> parse_transform st
  | L.T_name "do", L.T_name ("insert" | "delete" | "replace" | "rename") ->
      (* scripting-draft style "do replace ..." (paper §4.4) *)
      ignore (next st);
      parse_expr_single st
  | L.T_name "on", L.T_name "event" -> parse_event_attach_detach st
  | L.T_name "trigger", L.T_name "event" -> parse_event_trigger st
  | L.T_name "set", L.T_name "style" -> parse_set_style st
  | L.T_name "get", L.T_name "style" -> parse_get_style st
  | L.T_name "block", L.T_lbrace ->
      ignore (next st);
      parse_block st
  (* bare break/continue in expression position (e.g. `if ... then
     break else ()`): only when clearly terminal *)
  | L.T_name "break", (L.T_semi | L.T_rbrace | L.T_rpar | L.T_eof | L.T_name "else") ->
      ignore (next st);
      Ast.E_block [ Ast.S_break ]
  | L.T_name "continue", (L.T_semi | L.T_rbrace | L.T_rpar | L.T_eof | L.T_name "else") ->
      ignore (next st);
      Ast.E_block [ Ast.S_continue ]
  | L.T_lbrace, _ -> parse_block st
  | _ -> parse_or st

and parse_flwor st =
  let clauses = ref [] in
  let rec clause_loop () =
    match peek_kw st with
    | Some "for" when (match peek2 st with L.T_var _ -> true | _ -> false) ->
        ignore (next st);
        let rec one () =
          let var = var_name st in
          let var_type =
            if accept_kw st "as" then Some (parse_sequence_type st) else None
          in
          let pos_var = if accept_kw st "at" then Some (var_name st) else None in
          expect_kw st "in";
          let source = parse_expr_single st in
          clauses := Ast.For_clause { var; pos_var; var_type; source } :: !clauses;
          if accept st L.T_comma then one ()
        in
        one ();
        clause_loop ()
    | Some "let" when (match peek2 st with L.T_var _ -> true | _ -> false) ->
        ignore (next st);
        let rec one () =
          let var = var_name st in
          let var_type =
            if accept_kw st "as" then Some (parse_sequence_type st) else None
          in
          expect st L.T_colonequals "':='";
          let value = parse_expr_single st in
          clauses := Ast.Let_clause { var; var_type; value } :: !clauses;
          if accept st L.T_comma then one ()
        in
        one ();
        clause_loop ()
    | _ -> ()
  in
  clause_loop ();
  if !clauses = [] then fail st "expected 'for' or 'let' clause";
  let where = if accept_kw st "where" then Some (parse_expr_single st) else None in
  let order =
    let stable = peek_kw st = Some "stable" && peek2 st = L.T_name "order" in
    if stable then ignore (next st);
    if accept_kw st "order" then begin
      expect_kw st "by";
      let rec specs acc =
        let key = parse_expr_single st in
        let descending =
          if accept_kw st "descending" then true
          else begin
            ignore (accept_kw st "ascending");
            false
          end
        in
        let empty_greatest =
          if accept_kw st "empty" then
            if accept_kw st "greatest" then Some true
            else begin
              expect_kw st "least";
              Some false
            end
          else None
        in
        let acc = { Ast.key; descending; empty_greatest } :: acc in
        if accept st L.T_comma then specs acc else List.rev acc
      in
      specs []
    end
    else []
  in
  expect_kw st "return";
  let return = parse_expr_single st in
  Ast.E_flwor { clauses = List.rev !clauses; where; order; return }

and parse_quantified st =
  let quant =
    match next st with
    | L.T_name "some" -> Ast.Some_quant
    | L.T_name "every" -> Ast.Every_quant
    | _ -> assert false
  in
  let rec binds acc =
    let var = var_name st in
    let var_type =
      if accept_kw st "as" then Some (parse_sequence_type st) else None
    in
    expect_kw st "in";
    let source = parse_expr_single st in
    let acc = (var, var_type, source) :: acc in
    if accept st L.T_comma then binds acc else List.rev acc
  in
  let bindings = binds [] in
  expect_kw st "satisfies";
  let body = parse_expr_single st in
  Ast.E_quantified (quant, bindings, body)

and parse_typeswitch st =
  expect_kw st "typeswitch";
  expect st L.T_lpar "'('";
  let operand = parse_expr st in
  expect st L.T_rpar "')'";
  let rec cases acc =
    if accept_kw st "case" then begin
      let case_var =
        match peek st with
        | L.T_var _ ->
            let v = var_name st in
            expect_kw st "as";
            Some v
        | _ -> None
      in
      let case_type = parse_sequence_type st in
      expect_kw st "return";
      let case_body = parse_expr_single st in
      cases ({ Ast.case_var; case_type; case_body } :: acc)
    end
    else List.rev acc
  in
  let cases = cases [] in
  expect_kw st "default";
  let default_var =
    match peek st with L.T_var _ -> Some (var_name st) | _ -> None
  in
  expect_kw st "return";
  let default_body = parse_expr_single st in
  Ast.E_typeswitch (operand, cases, (default_var, default_body))

and parse_if st =
  expect_kw st "if";
  expect st L.T_lpar "'('";
  let cond = parse_expr st in
  expect st L.T_rpar "')'";
  expect_kw st "then";
  let then_e = parse_expr_single st in
  expect_kw st "else";
  let else_e = parse_expr_single st in
  Ast.E_if (cond, then_e, else_e)

(* -------- update expressions -------- *)

and parse_insert st =
  expect_kw st "insert";
  if not (accept_kw st "nodes") then expect_kw st "node";
  let source = parse_expr_single st in
  let position =
    if accept_kw st "into" then Ast.Into
    else if accept_kw st "as" then
      if accept_kw st "first" then begin
        expect_kw st "into";
        Ast.As_first_into
      end
      else begin
        expect_kw st "last";
        expect_kw st "into";
        Ast.As_last_into
      end
    else if accept_kw st "before" then Ast.Before
    else if accept_kw st "after" then Ast.After
    else fail st "expected 'into', 'as first/last into', 'before' or 'after'"
  in
  let target = parse_expr_single st in
  (* the paper's §4.2.1 listing writes the position after the target
     ("into $d/html/body as first"); accept that order too *)
  let position =
    if position = Ast.Into && accept_kw st "as" then
      if accept_kw st "first" then Ast.As_first_into
      else begin
        expect_kw st "last";
        Ast.As_last_into
      end
    else position
  in
  Ast.E_insert (position, source, target)

and parse_delete st =
  expect_kw st "delete";
  if not (accept_kw st "nodes") then expect_kw st "node";
  Ast.E_delete (parse_expr_single st)

and parse_replace st =
  expect_kw st "replace";
  let value_of =
    if accept_kw st "value" then begin
      expect_kw st "of";
      true
    end
    else false
  in
  expect_kw st "node";
  let target = parse_expr_single st in
  expect_kw st "with";
  let source = parse_expr_single st in
  Ast.E_replace { value_of; target; source }

and parse_rename st =
  expect_kw st "rename";
  expect_kw st "node";
  let target = parse_expr_single st in
  expect_kw st "as";
  let name = parse_expr_single st in
  Ast.E_rename (target, name)

and parse_transform st =
  expect_kw st "copy";
  let rec binds acc =
    let var = var_name st in
    expect st L.T_colonequals "':='";
    let value = parse_expr_single st in
    let acc = (var, value) :: acc in
    if accept st L.T_comma then binds acc else List.rev acc
  in
  let bindings = binds [] in
  expect_kw st "modify";
  let modify = parse_expr_single st in
  expect_kw st "return";
  let return = parse_expr_single st in
  Ast.E_transform (bindings, modify, return)

(* -------- browser extensions (paper §4.3, §4.5) -------- *)

and parse_event_attach_detach st =
  expect_kw st "on";
  expect_kw st "event";
  let event = parse_expr_single st in
  let binding =
    if accept_kw st "at" then Ast.Bind_at
    else if accept_kw st "behind" then Ast.Bind_behind
    else fail st "expected 'at' or 'behind'"
  in
  let target = parse_expr_single st in
  if accept_kw st "attach" then begin
    expect_kw st "listener";
    let listener = resolve_function st (expect_qname st) in
    Ast.E_event_attach { event; binding; target; listener }
  end
  else begin
    expect_kw st "detach";
    expect_kw st "listener";
    if binding = Ast.Bind_behind then
      fail st "'behind' cannot be used with 'detach listener'";
    let listener = resolve_function st (expect_qname st) in
    Ast.E_event_detach { event; target; listener }
  end

and parse_event_trigger st =
  expect_kw st "trigger";
  expect_kw st "event";
  let event = parse_expr_single st in
  expect_kw st "at";
  let target = parse_expr_single st in
  Ast.E_event_trigger { event; target }

and parse_set_style st =
  expect_kw st "set";
  expect_kw st "style";
  let property = parse_expr_single st in
  expect_kw st "of";
  (* the target is parsed below RangeExpr so the closing 'to' keyword
     is not mistaken for a range operator *)
  let target = parse_additive st in
  expect_kw st "to";
  let value = parse_expr_single st in
  Ast.E_set_style { property; target; value }

and parse_get_style st =
  expect_kw st "get";
  expect_kw st "style";
  let property = parse_expr_single st in
  expect_kw st "of";
  let target = parse_expr_single st in
  Ast.E_get_style { property; target }

(* -------- scripting blocks (paper §3.3) -------- *)

and parse_block st =
  expect st L.T_lbrace "'{'";
  let stmts = parse_statements st in
  expect st L.T_rbrace "'}'";
  Ast.E_block stmts

and parse_statements st =
  let stmts = ref [] in
  let rec loop () =
    match peek st with
    | L.T_rbrace | L.T_eof -> ()
    | L.T_semi ->
        ignore (next st);
        loop ()
    | _ ->
        stmts := parse_statement st :: !stmts;
        if accept st L.T_semi then loop ()
  in
  loop ();
  List.rev !stmts

and parse_statement st : Ast.statement =
  match (peek st, peek2 st) with
  | L.T_name "declare", L.T_name "variable" ->
      ignore (next st);
      ignore (next st);
      let var = var_name st in
      let var_type =
        if accept_kw st "as" then Some (parse_sequence_type st) else None
      in
      let init =
        if accept st L.T_colonequals then Some (parse_expr_single st) else None
      in
      Ast.S_var_decl (var, var_type, init)
  | L.T_name "set", L.T_var _ ->
      ignore (next st);
      let var = var_name st in
      expect st L.T_colonequals "':='";
      Ast.S_assign (var, parse_expr_single st)
  | L.T_name "while", L.T_lpar ->
      ignore (next st);
      expect st L.T_lpar "'('";
      let cond = parse_expr st in
      expect st L.T_rpar "')'";
      let body =
        if peek st = L.T_lbrace then begin
          expect st L.T_lbrace "'{'";
          let b = parse_statements st in
          expect st L.T_rbrace "'}'";
          b
        end
        else [ parse_statement st ]
      in
      Ast.S_while (cond, body)
  | L.T_name "exit", L.T_name ("with" | "returning") ->
      ignore (next st);
      ignore (next st);
      Ast.S_exit_with (parse_expr_single st)
  | L.T_name "break", (L.T_semi | L.T_rbrace) ->
      ignore (next st);
      Ast.S_break
  | L.T_name "continue", (L.T_semi | L.T_rbrace) ->
      ignore (next st);
      Ast.S_continue
  | _ ->
      (* a full Expr: comma sequences are legal at statement level
         (ordinary function bodies are parsed as one-statement blocks) *)
      Ast.S_expr (parse_expr st)

(* -------- operator precedence chain -------- *)

and parse_or st =
  let lhs = parse_and st in
  if accept_kw st "or" then Ast.E_or (lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_comparison st in
  if accept_kw st "and" then Ast.E_and (lhs, parse_and st) else lhs

and parse_comparison st =
  let lhs = parse_ftcontains st in
  let vc op =
    ignore (next st);
    Ast.E_general_comp (op, lhs, parse_ftcontains st)
  in
  match peek st with
  | L.T_eq -> vc Ast.Eq
  | L.T_ne -> vc Ast.Ne
  | L.T_lt -> vc Ast.Lt
  | L.T_le -> vc Ast.Le
  | L.T_gt -> vc Ast.Gt
  | L.T_ge -> vc Ast.Ge
  | L.T_ltlt ->
      ignore (next st);
      Ast.E_node_comp (Ast.Precedes, lhs, parse_ftcontains st)
  | L.T_gtgt ->
      ignore (next st);
      Ast.E_node_comp (Ast.Follows, lhs, parse_ftcontains st)
  | L.T_name "eq" ->
      ignore (next st);
      Ast.E_value_comp (Ast.Eq, lhs, parse_ftcontains st)
  | L.T_name "ne" ->
      ignore (next st);
      Ast.E_value_comp (Ast.Ne, lhs, parse_ftcontains st)
  | L.T_name "lt" ->
      ignore (next st);
      Ast.E_value_comp (Ast.Lt, lhs, parse_ftcontains st)
  | L.T_name "le" ->
      ignore (next st);
      Ast.E_value_comp (Ast.Le, lhs, parse_ftcontains st)
  | L.T_name "gt" ->
      ignore (next st);
      Ast.E_value_comp (Ast.Gt, lhs, parse_ftcontains st)
  | L.T_name "ge" ->
      ignore (next st);
      Ast.E_value_comp (Ast.Ge, lhs, parse_ftcontains st)
  | L.T_name "is" ->
      ignore (next st);
      Ast.E_node_comp (Ast.Is, lhs, parse_ftcontains st)
  | _ -> lhs

and parse_ftcontains st =
  let lhs = parse_range st in
  if accept_kw st "ftcontains" then Ast.E_ftcontains (lhs, parse_ft_selection st)
  else lhs

and parse_ft_selection st = parse_ft_or st

and parse_ft_or st =
  let lhs = parse_ft_and st in
  if accept_kw st "ftor" then Ast.Ft_or (lhs, parse_ft_or st) else lhs

and parse_ft_and st =
  let lhs = parse_ft_not st in
  if accept_kw st "ftand" then Ast.Ft_and (lhs, parse_ft_and st) else lhs

and parse_ft_not st =
  if accept_kw st "ftnot" then Ast.Ft_not (parse_ft_primary st)
  else parse_ft_primary st

and parse_ft_primary st =
  match peek st with
  | L.T_lpar ->
      ignore (next st);
      let sel = parse_ft_selection st in
      let sel = parse_ft_options_wrap st sel in
      expect st L.T_rpar "')'";
      sel
  | L.T_string s ->
      ignore (next st);
      let opts = parse_ft_options st in
      Ast.Ft_words (Ast.E_literal (Xdm_atomic.String s), opts)
  | L.T_var _ ->
      let v = var_name st in
      let opts = parse_ft_options st in
      Ast.Ft_words (Ast.E_var v, opts)
  | L.T_lbrace ->
      ignore (next st);
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      let opts = parse_ft_options st in
      Ast.Ft_words (e, opts)
  | t -> fail st "expected a full-text primary, found %s" (L.token_to_string t)

and parse_ft_options st =
  if peek_kw st = Some "with" && peek2 st = L.T_name "stemming" then begin
    ignore (next st);
    ignore (next st);
    [ Ast.Ft_stemming ]
  end
  else []

and parse_ft_options_wrap st sel =
  match (sel, parse_ft_options st) with
  | _, [] -> sel
  | Ast.Ft_words (e, opts), more -> Ast.Ft_words (e, opts @ more)
  | sel, _ -> sel

and parse_range st =
  let lhs = parse_additive st in
  if accept_kw st "to" then Ast.E_range (lhs, parse_additive st) else lhs

and parse_additive st =
  let rec loop lhs =
    match peek st with
    | L.T_plus ->
        ignore (next st);
        loop (Ast.E_arith (Ast.Add, lhs, parse_multiplicative st))
    | L.T_minus ->
        ignore (next st);
        loop (Ast.E_arith (Ast.Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    match peek st with
    | L.T_star ->
        ignore (next st);
        loop (Ast.E_arith (Ast.Mul, lhs, parse_union st))
    | L.T_name "div" ->
        ignore (next st);
        loop (Ast.E_arith (Ast.Div, lhs, parse_union st))
    | L.T_name "idiv" ->
        ignore (next st);
        loop (Ast.E_arith (Ast.Idiv, lhs, parse_union st))
    | L.T_name "mod" ->
        ignore (next st);
        loop (Ast.E_arith (Ast.Mod, lhs, parse_union st))
    | _ -> lhs
  in
  loop (parse_union st)

and parse_union st =
  let rec loop lhs =
    match peek st with
    | L.T_vbar ->
        ignore (next st);
        loop (Ast.E_union (lhs, parse_intersect_except st))
    | L.T_name "union" ->
        ignore (next st);
        loop (Ast.E_union (lhs, parse_intersect_except st))
    | _ -> lhs
  in
  loop (parse_intersect_except st)

and parse_intersect_except st =
  let rec loop lhs =
    match peek_kw st with
    | Some "intersect" ->
        ignore (next st);
        loop (Ast.E_intersect (lhs, parse_instance_of st))
    | Some "except" ->
        ignore (next st);
        loop (Ast.E_except (lhs, parse_instance_of st))
    | _ -> lhs
  in
  loop (parse_instance_of st)

and parse_instance_of st =
  let lhs = parse_treat st in
  if peek_kw st = Some "instance" && peek2 st = L.T_name "of" then begin
    ignore (next st);
    ignore (next st);
    Ast.E_instance_of (lhs, parse_sequence_type st)
  end
  else lhs

and parse_treat st =
  let lhs = parse_castable st in
  if peek_kw st = Some "treat" && peek2 st = L.T_name "as" then begin
    ignore (next st);
    ignore (next st);
    Ast.E_treat_as (lhs, parse_sequence_type st)
  end
  else lhs

and parse_castable st =
  let lhs = parse_cast st in
  if peek_kw st = Some "castable" && peek2 st = L.T_name "as" then begin
    ignore (next st);
    ignore (next st);
    let ty, opt = parse_single_type st in
    Ast.E_castable_as (lhs, ty, opt)
  end
  else lhs

and parse_cast st =
  let lhs = parse_unary st in
  if peek_kw st = Some "cast" && peek2 st = L.T_name "as" then begin
    ignore (next st);
    ignore (next st);
    let ty, opt = parse_single_type st in
    Ast.E_cast_as (lhs, ty, opt)
  end
  else lhs

and parse_unary st =
  match peek st with
  | L.T_minus ->
      ignore (next st);
      Ast.E_unary_minus (parse_unary st)
  | L.T_plus ->
      ignore (next st);
      parse_unary st
  | _ -> parse_path st

(* -------- path expressions -------- *)

and parse_path st =
  match peek st with
  | L.T_slash -> (
      ignore (next st);
      match peek st with
      | L.T_eof | L.T_rpar | L.T_rbracket | L.T_rbrace | L.T_comma | L.T_semi
      | L.T_lt | L.T_le | L.T_gt | L.T_ge | L.T_eq | L.T_ne ->
          Ast.E_root
      | _ -> steps_after st (Ast.E_path (Ast.E_root, parse_step st)))
  | L.T_slashslash ->
      ignore (next st);
      steps_after st (Ast.E_path (Ast.E_path (Ast.E_root, dos_step), parse_step st))
  | _ -> steps_after st (parse_step st)

(* The path operator is left-associative, a leading [/] or [//]
   included: [//a/b] is [((/)/descendant-or-self::node()/a)/b], so the
   last step's focus is the whole [//a] (as [position()] there sees)
   and [//a] is one subexpression the optimizer can turn into
   [descendant::a]. *)
and steps_after st lhs =
  match peek st with
  | L.T_slash ->
      ignore (next st);
      steps_after st (Ast.E_path (lhs, parse_step st))
  | L.T_slashslash ->
      ignore (next st);
      steps_after st (Ast.E_path (Ast.E_path (lhs, dos_step), parse_step st))
  | _ -> lhs

and axis_of_name = function
  | "child" -> Some Ast.Child
  | "descendant" -> Some Ast.Descendant
  | "attribute" -> Some Ast.Attribute_axis
  | "self" -> Some Ast.Self
  | "descendant-or-self" -> Some Ast.Descendant_or_self
  | "following-sibling" -> Some Ast.Following_sibling
  | "preceding-sibling" -> Some Ast.Preceding_sibling
  | "following" -> Some Ast.Following
  | "preceding" -> Some Ast.Preceding
  | "parent" -> Some Ast.Parent
  | "ancestor" -> Some Ast.Ancestor
  | "ancestor-or-self" -> Some Ast.Ancestor_or_self
  | _ -> None

and parse_node_test st ~default_element : Ast.node_test =
  match peek st with
  | L.T_star ->
      ignore (next st);
      Ast.Wildcard
  | L.T_ns_wildcard prefix -> (
      ignore (next st);
      match Qname.Env.lookup st.env prefix with
      | Some uri -> Ast.Ns_wildcard uri
      | None -> fail st "unbound namespace prefix %S" prefix)
  | L.T_local_wildcard local ->
      ignore (next st);
      Ast.Local_wildcard local
  | L.T_name kw when List.mem kw kind_test_keywords && peek2 st = L.T_lpar ->
      Ast.Kind_test (parse_kind_test st kw)
  | L.T_name _ | L.T_qname _ ->
      let qn = expect_qname st in
      let qn =
        if default_element then resolve_element st qn else resolve_other st qn
      in
      Ast.Name_test qn
  | t -> fail st "expected a node test, found %s" (L.token_to_string t)

and parse_step st =
  match peek st with
  | L.T_dot ->
      ignore (next st);
      parse_predicates_into st Ast.E_context_item
  | L.T_dotdot ->
      ignore (next st);
      let step = Ast.E_step (Ast.Parent, Ast.Kind_test Ast.Any_kind, []) in
      parse_predicates_wrap st step
  | L.T_at ->
      ignore (next st);
      let test = parse_node_test st ~default_element:false in
      parse_axis_step st Ast.Attribute_axis test
  | L.T_name n when axis_of_name n <> None && peek2 st = L.T_coloncolon ->
      ignore (next st);
      ignore (next st);
      let axis = Option.get (axis_of_name n) in
      let default_element = axis <> Ast.Attribute_axis in
      let test = parse_node_test st ~default_element in
      parse_axis_step st axis test
  | L.T_star | L.T_ns_wildcard _ | L.T_local_wildcard _ ->
      let test = parse_node_test st ~default_element:true in
      parse_axis_step st Ast.Child test
  | L.T_name kw when List.mem kw kind_test_keywords && peek2 st = L.T_lpar ->
      let test = parse_node_test st ~default_element:true in
      let axis =
        match test with
        | Ast.Kind_test (Ast.Attribute_kind _) -> Ast.Attribute_axis
        | _ -> Ast.Child
      in
      parse_axis_step st axis test
  | L.T_name ("element" | "attribute" | "processing-instruction")
    when is_computed_ctor_ahead st ->
      parse_filter st
  | L.T_name ("text" | "comment" | "document" | "ordered" | "unordered")
    when peek2 st = L.T_lbrace ->
      parse_filter st
  | (L.T_name _ | L.T_qname _)
    when peek2 st <> L.T_lpar
         || (match peek st with
            | L.T_name n -> List.mem n reserved_function_names
            | _ -> false) ->
      (* A bare name: either a function call (handled in primary) or a
         child-axis name test. Names followed by '(' that are not
         reserved are function calls. *)
      if peek2 st = L.T_lpar then
        (* reserved name + '(' — kind tests were handled above, so this
           is 'if(', 'typeswitch(' etc., which cannot start a step *)
        parse_filter st
      else
        let test = parse_node_test st ~default_element:true in
        parse_axis_step st Ast.Child test
  | _ -> parse_filter st

and parse_axis_step st axis test =
  parse_predicates_wrap st (Ast.E_step (axis, test, []))

and parse_predicates st =
  let rec loop acc =
    if peek st = L.T_lbracket then begin
      ignore (next st);
      let p = parse_expr st in
      expect st L.T_rbracket "']'";
      loop (p :: acc)
    end
    else List.rev acc
  in
  loop []

and parse_predicates_wrap st step =
  match (step, parse_predicates st) with
  | Ast.E_step (axis, test, []), preds -> Ast.E_step (axis, test, preds)
  | e, [] -> e
  | e, preds -> Ast.E_filter (e, preds)

and parse_predicates_into st primary =
  match parse_predicates st with
  | [] -> primary
  | preds -> Ast.E_filter (primary, preds)

and parse_filter st =
  let primary = parse_primary st in
  parse_predicates_into st primary

and parse_primary st : Ast.expr =
  match peek st with
  | L.T_integer i ->
      ignore (next st);
      Ast.E_literal (Xdm_atomic.Integer i)
  | L.T_decimal f ->
      ignore (next st);
      Ast.E_literal (Xdm_atomic.Decimal f)
  | L.T_double f ->
      ignore (next st);
      Ast.E_literal (Xdm_atomic.Double f)
  | L.T_string s ->
      ignore (next st);
      Ast.E_literal (Xdm_atomic.String s)
  | L.T_var _ -> Ast.E_var (var_name st)
  | L.T_lpar ->
      ignore (next st);
      if accept st L.T_rpar then Ast.E_sequence []
      else begin
        let e = parse_expr st in
        expect st L.T_rpar "')'";
        e
      end
  | L.T_dot ->
      ignore (next st);
      Ast.E_context_item
  | L.T_pragma _ ->
      ignore (next st);
      (* extension expression: evaluate the fallback *)
      expect st L.T_lbrace "'{'";
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      e
  | L.T_tag_open -> parse_direct_constructor st
  | L.T_name "ordered" when peek2 st = L.T_lbrace ->
      ignore (next st);
      expect st L.T_lbrace "'{'";
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      Ast.E_ordered e
  | L.T_name "unordered" when peek2 st = L.T_lbrace ->
      ignore (next st);
      expect st L.T_lbrace "'{'";
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      Ast.E_unordered e
  | L.T_name "element" when is_computed_ctor_ahead st ->
      parse_computed_element st
  | L.T_name "attribute" when is_computed_ctor_ahead st ->
      parse_computed_attribute st
  | L.T_name "text" when peek2 st = L.T_lbrace -> (
      ignore (next st);
      expect st L.T_lbrace "'{'";
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      Ast.E_computed_text e)
  | L.T_name "comment" when peek2 st = L.T_lbrace -> (
      ignore (next st);
      expect st L.T_lbrace "'{'";
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      Ast.E_computed_comment e)
  | L.T_name "processing-instruction" when is_computed_ctor_ahead st -> (
      ignore (next st);
      let name_e =
        match peek st with
        | L.T_name n ->
            ignore (next st);
            Ast.E_literal (Xdm_atomic.String n)
        | L.T_lbrace ->
            ignore (next st);
            let e = parse_expr st in
            expect st L.T_rbrace "'}'";
            e
        | t -> fail st "expected PI name, found %s" (L.token_to_string t)
      in
      expect st L.T_lbrace "'{'";
      let body = if peek st = L.T_rbrace then Ast.E_sequence [] else parse_expr st in
      expect st L.T_rbrace "'}'";
      Ast.E_computed_pi (name_e, body))
  | L.T_name "document" when peek2 st = L.T_lbrace -> (
      ignore (next st);
      expect st L.T_lbrace "'{'";
      let e = parse_expr st in
      expect st L.T_rbrace "'}'";
      Ast.E_computed_document e)
  | (L.T_name _ | L.T_qname _) when peek2 st = L.T_lpar -> (
      match peek st with
      | L.T_name n when List.mem n reserved_function_names ->
          fail st "unexpected reserved word %S" n
      | _ ->
          let qn = resolve_function st (expect_qname st) in
          expect st L.T_lpar "'('";
          let args =
            if accept st L.T_rpar then []
            else begin
              let rec args acc =
                let a = parse_expr_single st in
                if accept st L.T_comma then args (a :: acc)
                else begin
                  expect st L.T_rpar "')'";
                  List.rev (a :: acc)
                end
              in
              args []
            end
          in
          Ast.E_call (qn, args))
  | t -> fail st "unexpected token %s" (L.token_to_string t)

and is_computed_ctor_ahead st =
  (* element/attribute/PI computed constructors: keyword followed by a
     name or '{' ... but 'element(' is a kind test and handled before. *)
  match peek2 st with
  | L.T_lbrace -> true
  | L.T_name _ | L.T_qname _ ->
      (* e.g. [element foo {...}] — needs a third token '{' *)
      let snap = L.save st.lx in
      let _ = L.next st.lx in
      let _ = L.next st.lx in
      let t3 = L.peek st.lx in
      L.restore st.lx snap;
      t3 = L.T_lbrace
  | _ -> false

and parse_computed_element st =
  expect_kw st "element";
  let name_e =
    match peek st with
    | L.T_name _ | L.T_qname _ ->
        let qn = resolve_element st (expect_qname st) in
        Ast.E_literal (Xdm_atomic.Qname_v qn)
    | L.T_lbrace ->
        ignore (next st);
        let e = parse_expr st in
        expect st L.T_rbrace "'}'";
        e
    | t -> fail st "expected element name, found %s" (L.token_to_string t)
  in
  expect st L.T_lbrace "'{'";
  let content = if peek st = L.T_rbrace then Ast.E_sequence [] else parse_expr st in
  expect st L.T_rbrace "'}'";
  Ast.E_computed_element (name_e, content)

and parse_computed_attribute st =
  expect_kw st "attribute";
  let name_e =
    match peek st with
    | L.T_name _ | L.T_qname _ ->
        let qn = resolve_other st (expect_qname st) in
        Ast.E_literal (Xdm_atomic.Qname_v qn)
    | L.T_lbrace ->
        ignore (next st);
        let e = parse_expr st in
        expect st L.T_rbrace "'}'";
        e
    | t -> fail st "expected attribute name, found %s" (L.token_to_string t)
  in
  expect st L.T_lbrace "'{'";
  let content = if peek st = L.T_rbrace then Ast.E_sequence [] else parse_expr st in
  expect st L.T_rbrace "'}'";
  Ast.E_computed_attribute (name_e, content)

(* -------- direct constructors (raw lexing) -------- *)

and parse_direct_constructor st =
  (* current token is T_tag_open; raw position is just after '<' *)
  ignore (next st);
  parse_direct_element st

and parse_direct_element st =
  let lx = st.lx in
  let name_raw = L.raw_read_name lx in
  (* read attributes *)
  let rec read_attrs acc =
    L.raw_skip_space lx;
    if L.raw_looking_at lx "/>" then begin
      L.raw_skip lx 2;
      (List.rev acc, true)
    end
    else if L.raw_looking_at lx ">" then begin
      L.raw_skip lx 1;
      (List.rev acc, false)
    end
    else begin
      let an = L.raw_read_name lx in
      L.raw_skip_space lx;
      if not (L.raw_looking_at lx "=") then fail st "expected '=' after attribute name";
      L.raw_skip lx 1;
      L.raw_skip_space lx;
      let quote =
        match L.raw_next lx with
        | Some (('"' | '\'') as q) -> q
        | _ -> fail st "expected quoted attribute value"
      in
      let parts = parse_attr_value st quote in
      read_attrs ((an, parts) :: acc)
    end
  in
  let attrs_raw, self_closing = read_attrs [] in
  (* namespace handling: xmlns attributes extend the env for this scope *)
  let saved_env = st.env in
  List.iter
    (fun (an, parts) ->
      let static_value () =
        String.concat ""
          (List.map
             (function
               | Ast.A_text t -> t
               | Ast.A_enclosed _ ->
                   fail st "namespace declaration value must be static")
             parts)
      in
      match Qname.of_string an with
      | { Qname.prefix = None; local = "xmlns"; _ } ->
          let uri = static_value () in
          st.env <-
            Qname.Env.bind_default st.env
              ~uri:(if uri = "" then None else Some uri)
      | { Qname.prefix = Some "xmlns"; local = p; _ } ->
          st.env <- Qname.Env.bind st.env ~prefix:p ~uri:(static_value ())
      | _ -> ())
    attrs_raw;
  let name = resolve_element st (Qname.of_string name_raw) in
  let attributes =
    List.map (fun (an, parts) -> (resolve_other st (Qname.of_string an), parts)) attrs_raw
  in
  Option.iter
    (fun an ->
      let line, col = L.position lx in
      Xq_error.raise_error "XQST0040" "line %d, col %d: duplicate attribute %s on <%s>"
        line col (Qname.to_string an) name_raw)
    (Qname.find_duplicate (List.map fst attributes));
  let children =
    if self_closing then []
    else parse_direct_content st name_raw
  in
  st.env <- saved_env;
  Ast.E_direct_element { name; attributes; children }

and parse_attr_value st quote =
  let lx = st.lx in
  let buf = Buffer.create 16 in
  let parts = ref [] in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      parts := Ast.A_text (unescape st (Buffer.contents buf)) :: !parts;
      Buffer.clear buf
    end
  in
  let rec go () =
    match L.raw_peek lx with
    | None -> fail st "unterminated attribute value"
    | Some c when c = quote ->
        L.raw_skip lx 1;
        (* doubled quote = literal quote *)
        if L.raw_peek lx = Some quote then begin
          Buffer.add_char buf quote;
          L.raw_skip lx 1;
          go ()
        end
        else flush_text ()
    | Some '{' ->
        if L.raw_looking_at lx "{{" then begin
          Buffer.add_char buf '{';
          L.raw_skip lx 2;
          go ()
        end
        else begin
          flush_text ();
          L.raw_skip lx 1;
          let e = parse_expr st in
          expect st L.T_rbrace "'}'";
          parts := Ast.A_enclosed e :: !parts;
          go ()
        end
    | Some '}' ->
        if L.raw_looking_at lx "}}" then begin
          Buffer.add_char buf '}';
          L.raw_skip lx 2;
          go ()
        end
        else fail st "unescaped '}' in attribute value"
    | Some c ->
        Buffer.add_char buf c;
        L.raw_skip lx 1;
        go ()
  in
  go ();
  List.rev !parts

and parse_direct_content st open_name =
  let lx = st.lx in
  let buf = Buffer.create 32 in
  let children = ref [] in
  let boundary_preserve = st.boundary_preserve in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let text = unescape st (Buffer.contents buf) in
      Buffer.clear buf;
      let all_space = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') text in
      if text <> "" && (boundary_preserve || not all_space) then
        children := Ast.E_text_literal text :: !children
    end
  in
  let rec go () =
    match L.raw_peek lx with
    | None -> fail st "unclosed element <%s>" open_name
    | Some '<' ->
        if L.raw_looking_at lx "</" then begin
          flush_text ();
          L.raw_skip lx 2;
          let close = L.raw_read_name lx in
          L.raw_skip_space lx;
          if not (L.raw_looking_at lx ">") then fail st "expected '>'";
          L.raw_skip lx 1;
          if not (String.equal close open_name) then
            fail st "mismatched close tag </%s>, expected </%s>" close open_name
        end
        else if L.raw_looking_at lx "<!--" then begin
          flush_text ();
          L.raw_skip lx 4;
          let c = L.raw_until lx "-->" in
          children :=
            Ast.E_computed_comment (Ast.E_literal (Xdm_atomic.String c))
            :: !children;
          go ()
        end
        else if L.raw_looking_at lx "<![CDATA[" then begin
          L.raw_skip lx 9;
          let c = L.raw_until lx "]]>" in
          Buffer.add_string buf (Xml_escape.text c);
          go ()
        end
        else if L.raw_looking_at lx "<?" then begin
          flush_text ();
          L.raw_skip lx 2;
          let target = L.raw_read_name lx in
          L.raw_skip_space lx;
          let data = L.raw_until lx "?>" in
          children :=
            Ast.E_computed_pi
              ( Ast.E_literal (Xdm_atomic.String target),
                Ast.E_literal (Xdm_atomic.String data) )
            :: !children;
          go ()
        end
        else begin
          flush_text ();
          L.raw_skip lx 1;
          let el = parse_direct_element st in
          children := el :: !children;
          go ()
        end
    | Some '{' ->
        if L.raw_looking_at lx "{{" then begin
          Buffer.add_char buf '{';
          L.raw_skip lx 2;
          go ()
        end
        else begin
          flush_text ();
          L.raw_skip lx 1;
          let e = if peek st = L.T_rbrace then Ast.E_sequence [] else parse_expr st in
          expect st L.T_rbrace "'}'";
          children := Ast.E_enclosed e :: !children;
          go ()
        end
    | Some '}' ->
        if L.raw_looking_at lx "}}" then begin
          Buffer.add_char buf '}';
          L.raw_skip lx 2;
          go ()
        end
        else fail st "unescaped '}' in element content"
    | Some c ->
        Buffer.add_char buf c;
        L.raw_skip lx 1;
        go ()
  in
  go ();
  List.rev !children

(* ---------------- prolog & program ---------------- *)

let parse_version_decl st =
  if peek_kw st = Some "xquery" && peek2 st = L.T_name "version" then begin
    ignore (next st);
    ignore (next st);
    ignore (expect_string st);
    if accept_kw st "encoding" then ignore (expect_string st);
    expect st L.T_semi "';'"
  end

let parse_module_decl st =
  if peek_kw st = Some "module" && peek2 st = L.T_name "namespace" then begin
    ignore (next st);
    ignore (next st);
    let prefix = expect_ncname st in
    expect st L.T_eq "'='";
    let uri = expect_string st in
    (* paper extension: module namespace p = "uri" port:2001; *)
    let port =
      if peek_kw st = Some "port" then begin
        ignore (next st);
        (* ':NNNN' — read through raw access, ':2001' does not lex *)
        L.raw_skip_space st.lx;
        if not (L.raw_looking_at st.lx ":") then fail st "expected ':' after 'port'";
        L.raw_skip st.lx 1;
        let buf = Buffer.create 8 in
        let rec digits () =
          match L.raw_peek st.lx with
          | Some c when c >= '0' && c <= '9' ->
              Buffer.add_char buf c;
              L.raw_skip st.lx 1;
              digits ()
          | _ -> ()
        in
        digits ();
        if Buffer.length buf = 0 then fail st "expected a port number";
        match int_of_string_opt (Buffer.contents buf) with
        | Some p -> Some p
        | None -> fail st "port number %s is out of range" (Buffer.contents buf)
      end
      else None
    in
    expect st L.T_semi "';'";
    st.env <- Qname.Env.bind st.env ~prefix ~uri;
    Some { Ast.mod_prefix = prefix; mod_uri = uri; mod_port = port }
  end
  else None

let rec parse_prolog st acc =
  match (peek st, peek2 st) with
  | L.T_name "declare", L.T_name "namespace" ->
      ignore (next st);
      ignore (next st);
      let prefix = expect_ncname st in
      expect st L.T_eq "'='";
      let uri = expect_string st in
      expect st L.T_semi "';'";
      st.env <- Qname.Env.bind st.env ~prefix ~uri;
      parse_prolog st (Ast.P_namespace (prefix, uri) :: acc)
  | L.T_name "declare", L.T_name "default" ->
      ignore (next st);
      ignore (next st);
      if accept_kw st "element" then begin
        expect_kw st "namespace";
        let uri = expect_string st in
        expect st L.T_semi "';'";
        st.env <- Qname.Env.bind_default st.env ~uri:(Some uri);
        parse_prolog st (Ast.P_default_element_ns uri :: acc)
      end
      else begin
        expect_kw st "function";
        expect_kw st "namespace";
        let uri = expect_string st in
        expect st L.T_semi "';'";
        st.default_fun_ns <- uri;
        parse_prolog st (Ast.P_default_function_ns uri :: acc)
      end
  | L.T_name "declare", L.T_name "boundary-space" ->
      ignore (next st);
      ignore (next st);
      let preserve =
        if accept_kw st "preserve" then true
        else begin
          expect_kw st "strip";
          false
        end
      in
      expect st L.T_semi "';'";
      st.boundary_preserve <- preserve;
      parse_prolog st (Ast.P_boundary_space_preserve preserve :: acc)
  | L.T_name "declare", L.T_name "option" ->
      ignore (next st);
      ignore (next st);
      let qn = resolve_function st (expect_qname st) in
      let v = expect_string st in
      expect st L.T_semi "';'";
      parse_prolog st (Ast.P_option (qn, v) :: acc)
  | L.T_name "declare", L.T_name "variable" ->
      ignore (next st);
      ignore (next st);
      let var = var_name st in
      let var_type =
        if accept_kw st "as" then Some (parse_sequence_type st) else None
      in
      let init =
        if accept st L.T_colonequals then Some (parse_expr_single st)
        else begin
          ignore (accept_kw st "external");
          None
        end
      in
      expect st L.T_semi "';'";
      parse_prolog st (Ast.P_variable (var, var_type, init) :: acc)
  | L.T_name "declare", L.T_name ("function" | "updating" | "sequential") ->
      ignore (next st);
      let kind =
        if accept_kw st "updating" then Ast.F_updating
        else if accept_kw st "sequential" then Ast.F_sequential
        else Ast.F_plain
      in
      expect_kw st "function";
      let fname =
        let qn = expect_qname st in
        match qn.Qname.prefix with
        | Some _ -> resolve_other st qn
        | None ->
            (* unprefixed declared functions live in the local namespace *)
            Qname.with_uri qn (Some Qname.Ns.local)
      in
      expect st L.T_lpar "'('";
      let params =
        if accept st L.T_rpar then []
        else begin
          let rec params acc =
            let v = var_name st in
            let ty =
              if accept_kw st "as" then Some (parse_sequence_type st) else None
            in
            if accept st L.T_comma then params ((v, ty) :: acc)
            else begin
              expect st L.T_rpar "')'";
              List.rev ((v, ty) :: acc)
            end
          in
          params []
        end
      in
      let return_type =
        if accept_kw st "as" then Some (parse_sequence_type st) else None
      in
      let body =
        if accept_kw st "external" then None
        else begin
          let block = parse_block st in
          Some block
        end
      in
      expect st L.T_semi "';'";
      let decl = { Ast.fname; params; return_type; body; kind } in
      parse_prolog st (Ast.P_function decl :: acc)
  | L.T_name "import", L.T_name "module" ->
      ignore (next st);
      ignore (next st);
      let prefix =
        if accept_kw st "namespace" then begin
          let p = expect_ncname st in
          expect st L.T_eq "'='";
          Some p
        end
        else None
      in
      let uri = expect_string st in
      let locations =
        if accept_kw st "at" then begin
          let rec locs acc =
            let l = expect_string st in
            if accept st L.T_comma then locs (l :: acc) else List.rev (l :: acc)
          in
          locs []
        end
        else []
      in
      expect st L.T_semi "';'";
      Option.iter (fun p -> st.env <- Qname.Env.bind st.env ~prefix:p ~uri) prefix;
      parse_prolog st (Ast.P_module_import { prefix; uri; locations } :: acc)
  | _ -> List.rev acc

let parse_program sctx source =
  let st = start sctx source in
  parse_version_decl st;
  let library_module = parse_module_decl st in
  let prolog = parse_prolog st [] in
  let body =
    match library_module with
    | Some _ ->
        if peek st <> L.T_eof then fail st "library module cannot have a body";
        None
    | None ->
        if peek st = L.T_eof then None
        else begin
          let e = parse_expr st in
          (* tolerate a trailing ';' *)
          ignore (accept st L.T_semi);
          if peek st <> L.T_eof then
            fail st "unexpected trailing input: %s" (L.token_to_string (peek st));
          Some e
        end
  in
  { Ast.library_module; prolog; body }

let parse_expression sctx source =
  let st = start sctx source in
  let e = parse_expr st in
  if peek st <> L.T_eof then
    fail st "unexpected trailing input: %s" (L.token_to_string (peek st));
  e
