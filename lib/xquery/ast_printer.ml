open Xmlb
open Ast
module A = Xdm_atomic

let buf_add = Buffer.add_string

let string_literal s =
  (* single-quoted with doubling; escape ampersands so re-lexing does
     not expand entity-like text *)
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '\'';
  String.iter
    (fun c ->
      match c with
      | '\'' -> buf_add b "''"
      | '&' -> buf_add b "&amp;"
      | '<' -> buf_add b "&lt;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '\'';
  Buffer.contents b

let qname q = Qname.to_string q

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Attribute_axis -> "attribute"
  | Self -> "self"
  | Descendant_or_self -> "descendant-or-self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Following -> "following"
  | Preceding -> "preceding"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"

let node_test_to_source = function
  | Name_test q -> qname q
  | Wildcard -> "*"
  | Ns_wildcard uri -> Printf.sprintf "*" |> fun _ -> "Q{" ^ uri ^ "}*"
  | Local_wildcard local -> "*:" ^ local
  | Kind_test kt -> Seq_type.to_string (St (It_kind kt, Occ_one))

let value_comp_to_source general = function
  | Eq -> if general then "=" else "eq"
  | Ne -> if general then "!=" else "ne"
  | Lt -> if general then "<" else "lt"
  | Le -> if general then "<=" else "le"
  | Gt -> if general then ">" else "gt"
  | Ge -> if general then ">=" else "ge"

let arith_to_source = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Idiv -> "idiv"
  | Mod -> "mod"

let literal_to_source (a : A.t) =
  match a with
  | A.Integer i -> string_of_int i
  | A.Decimal _ | A.Double _ -> A.to_string a
  | A.Boolean b -> if b then "fn:true()" else "fn:false()"
  | A.Qname_v q -> qname q
  | A.String s | A.Untyped s -> string_literal s
  | a ->
      Printf.sprintf "xs:%s(%s)"
        (A.type_name (A.type_of a))
        (string_literal (A.to_string a))

let rec expr b (e : expr) =
  let p s = buf_add b s in
  let paren e =
    p "(";
    expr b e;
    p ")"
  in
  match e with
  | E_literal a -> p (literal_to_source a)
  | E_var q -> p ("$" ^ qname q)
  | E_context_item -> p "."
  | E_root -> p "/"
  | E_text_literal s ->
      p "text { ";
      p (string_literal s);
      p " }"
  | E_sequence [] -> p "()"
  | E_sequence es ->
      p "(";
      List.iteri
        (fun i e ->
          if i > 0 then p ", ";
          expr b e)
        es;
      p ")"
  | E_range (a, c) ->
      paren a;
      p " to ";
      paren c
  | E_if (c, t, f) ->
      p "if (";
      expr b c;
      p ") then ";
      paren t;
      p " else ";
      paren f
  | E_or (x, y) ->
      paren x;
      p " or ";
      paren y
  | E_and (x, y) ->
      paren x;
      p " and ";
      paren y
  | E_value_comp (op, x, y) ->
      paren x;
      p (" " ^ value_comp_to_source false op ^ " ");
      paren y
  | E_general_comp (op, x, y) ->
      paren x;
      p (" " ^ value_comp_to_source true op ^ " ");
      paren y
  | E_node_comp (op, x, y) ->
      paren x;
      p (match op with Is -> " is " | Precedes -> " << " | Follows -> " >> ");
      paren y
  | E_ftcontains (x, sel) ->
      paren x;
      p " ftcontains ";
      ft b sel
  | E_arith (op, x, y) ->
      paren x;
      p (" " ^ arith_to_source op ^ " ");
      paren y
  | E_unary_minus x ->
      p "-";
      paren x
  | E_union (x, y) ->
      paren x;
      p " | ";
      paren y
  | E_intersect (x, y) ->
      paren x;
      p " intersect ";
      paren y
  | E_except (x, y) ->
      paren x;
      p " except ";
      paren y
  | E_instance_of (x, st) ->
      paren x;
      p (" instance of " ^ Seq_type.to_string st)
  | E_treat_as (x, st) ->
      paren x;
      p (" treat as " ^ Seq_type.to_string st)
  | E_castable_as (x, ty, opt) ->
      paren x;
      p
        (Printf.sprintf " castable as xs:%s%s" (A.type_name ty)
           (if opt then "?" else ""))
  | E_cast_as (x, ty, opt) ->
      paren x;
      p
        (Printf.sprintf " cast as xs:%s%s" (A.type_name ty)
           (if opt then "?" else ""))
  | E_step (axis, test, preds) ->
      p (axis_name axis ^ "::" ^ node_test_to_source test);
      preds_out b preds
  | E_path (x, y) ->
      (match x with
      | E_root -> p "/"
      | x ->
          paren x;
          p "/");
      expr b y
  | E_filter (x, preds) ->
      paren x;
      preds_out b preds
  | E_call (q, args) ->
      p (qname q);
      p "(";
      List.iteri
        (fun i a ->
          if i > 0 then p ", ";
          expr b a)
        args;
      p ")"
  | E_ordered x ->
      p "ordered { ";
      expr b x;
      p " }"
  | E_unordered x ->
      p "unordered { ";
      expr b x;
      p " }"
  | E_enclosed x -> expr b x
  | E_flwor { clauses; where; order; return } ->
      List.iter
        (function
          | For_clause { var; pos_var; var_type; source } ->
              p ("for $" ^ qname var);
              Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) var_type;
              Option.iter (fun v -> p (" at $" ^ qname v)) pos_var;
              p " in ";
              paren source;
              p " "
          | Let_clause { var; var_type; value } ->
              p ("let $" ^ qname var);
              Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) var_type;
              p " := ";
              paren value;
              p " ")
        clauses;
      Option.iter
        (fun w ->
          p "where ";
          paren w;
          p " ")
        where;
      if order <> [] then begin
        p "order by ";
        List.iteri
          (fun i spec ->
            if i > 0 then p ", ";
            paren spec.key;
            if spec.descending then p " descending";
            match spec.empty_greatest with
            | Some true -> p " empty greatest"
            | Some false -> p " empty least"
            | None -> ())
          order;
        p " "
      end;
      p "return ";
      paren return
  | E_hash_join j ->
      (* pseudo-syntax: not parseable, but round-trips the plan shape
         for golden tests and EXPLAIN-style debugging *)
      p ("hash-join for $" ^ qname j.jleft_var ^ " in ");
      paren j.jleft_source;
      p (", $" ^ qname j.jright_var ^ " in ");
      paren j.jright_source;
      p " on ";
      paren j.jleft_key;
      p (if j.jgeneral then " = " else " eq ");
      paren j.jright_key;
      p " ";
      Option.iter
        (fun w ->
          p "where ";
          paren w;
          p " ")
        j.jwhere;
      if j.jorder <> [] then begin
        p "order by ";
        List.iteri
          (fun i spec ->
            if i > 0 then p ", ";
            paren spec.key;
            if spec.descending then p " descending";
            match spec.empty_greatest with
            | Some true -> p " empty greatest"
            | Some false -> p " empty least"
            | None -> ())
          j.jorder;
        p " "
      end;
      p "return ";
      paren j.jreturn
  | E_quantified (q, binds, body) ->
      p (match q with Some_quant -> "some " | Every_quant -> "every ");
      List.iteri
        (fun i (v, t, src) ->
          if i > 0 then p ", ";
          p ("$" ^ qname v);
          Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) t;
          p " in ";
          paren src)
        binds;
      p " satisfies ";
      paren body
  | E_typeswitch (op, cases, (dv, db)) ->
      p "typeswitch (";
      expr b op;
      p ")";
      List.iter
        (fun c ->
          p " case ";
          Option.iter (fun v -> p ("$" ^ qname v ^ " as ")) c.case_var;
          p (Seq_type.to_string c.case_type);
          p " return ";
          paren c.case_body)
        cases;
      p " default ";
      Option.iter (fun v -> p ("$" ^ qname v ^ " ")) dv;
      p "return ";
      paren db
  | E_direct_element { name; attributes; children } ->
      p ("<" ^ qname name);
      List.iter
        (fun (an, parts) ->
          p (" " ^ qname an ^ "=\"");
          List.iter
            (function
              | A_text t -> p (Xml_escape.attribute t)
              | A_enclosed e ->
                  p "{";
                  expr b e;
                  p "}")
            parts;
          p "\"")
        attributes;
      if children = [] then p "/>"
      else begin
        p ">";
        List.iter
          (fun c ->
            match c with
            | E_text_literal s -> p (Xml_escape.text s)
            | E_direct_element _ -> expr b c
            | E_enclosed e ->
                p "{ ";
                expr b e;
                p " }"
            | c ->
                p "{ ";
                expr b c;
                p " }")
          children;
        p ("</" ^ qname name ^ ">")
      end
  | E_computed_element (n, c) ->
      p "element ";
      (match n with
      | E_literal (A.Qname_v q) -> p (qname q ^ " ")
      | n ->
          p "{ ";
          expr b n;
          p " } ");
      p "{ ";
      expr b c;
      p " }"
  | E_computed_attribute (n, c) ->
      p "attribute ";
      (match n with
      | E_literal (A.Qname_v q) -> p (qname q ^ " ")
      | n ->
          p "{ ";
          expr b n;
          p " } ");
      p "{ ";
      expr b c;
      p " }"
  | E_computed_text c ->
      p "text { ";
      expr b c;
      p " }"
  | E_computed_comment c ->
      p "comment { ";
      expr b c;
      p " }"
  | E_computed_pi (n, c) ->
      p "processing-instruction { ";
      expr b n;
      p " } { ";
      expr b c;
      p " }"
  | E_computed_document c ->
      p "document { ";
      expr b c;
      p " }"
  | E_insert (pos, src, target) ->
      p "insert nodes ";
      paren src;
      p
        (match pos with
        | Into -> " into "
        | As_first_into -> " as first into "
        | As_last_into -> " as last into "
        | Before -> " before "
        | After -> " after ");
      paren target
  | E_delete x ->
      p "delete nodes ";
      paren x
  | E_replace { value_of; target; source } ->
      p (if value_of then "replace value of node " else "replace node ");
      paren target;
      p " with ";
      paren source
  | E_rename (t, n) ->
      p "rename node ";
      paren t;
      p " as ";
      paren n
  | E_transform (binds, m, r) ->
      p "copy ";
      List.iteri
        (fun i (v, e) ->
          if i > 0 then p ", ";
          p ("$" ^ qname v ^ " := ");
          paren e)
        binds;
      p " modify ";
      paren m;
      p " return ";
      paren r
  | E_block stmts ->
      p "{ ";
      List.iter
        (fun s ->
          statement b s;
          p "; ")
        stmts;
      p "}"
  | E_event_attach { event; binding; target; listener } ->
      p "on event ";
      paren event;
      p (match binding with Bind_at -> " at " | Bind_behind -> " behind ");
      paren target;
      p (" attach listener " ^ qname listener)
  | E_event_detach { event; target; listener } ->
      p "on event ";
      paren event;
      p " at ";
      paren target;
      p (" detach listener " ^ qname listener)
  | E_event_trigger { event; target } ->
      p "trigger event ";
      paren event;
      p " at ";
      paren target
  | E_set_style { property; target; value } ->
      p "set style ";
      paren property;
      p " of ";
      paren target;
      p " to ";
      paren value
  | E_get_style { property; target } ->
      p "get style ";
      paren property;
      p " of ";
      paren target

and preds_out b preds =
  List.iter
    (fun pr ->
      buf_add b "[";
      expr b pr;
      buf_add b "]")
    preds

and ft b sel =
  let p = buf_add b in
  match sel with
  | Ft_words (e, opts) ->
      p "(";
      expr b e;
      List.iter (function Ft_stemming -> p " with stemming") opts;
      p ")"
  | Ft_and (x, y) ->
      p "(";
      ft b x;
      p " ftand ";
      ft b y;
      p ")"
  | Ft_or (x, y) ->
      p "(";
      ft b x;
      p " ftor ";
      ft b y;
      p ")"
  | Ft_not x ->
      p "(ftnot ";
      ft b x;
      p ")"

and statement b (s : statement) =
  let p = buf_add b in
  match s with
  | S_var_decl (v, t, init) ->
      p ("declare variable $" ^ qname v);
      Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) t;
      Option.iter
        (fun e ->
          p " := ";
          expr b e)
        init
  | S_assign (v, e) ->
      p ("set $" ^ qname v ^ " := ");
      expr b e
  | S_while (c, body) ->
      p "while (";
      expr b c;
      p ") { ";
      List.iter
        (fun s ->
          statement b s;
          p "; ")
        body;
      p "}"
  | S_break -> p "break"
  | S_continue -> p "continue"
  | S_exit_with e ->
      p "exit with ";
      expr b e
  | S_expr e -> expr b e

let expr_to_source e =
  let b = Buffer.create 128 in
  expr b e;
  Buffer.contents b

let function_kind_to_source = function
  | F_plain -> ""
  | F_updating -> "updating "
  | F_sequential -> "sequential "

let prolog_decl_to_source (d : prolog_decl) =
  let b = Buffer.create 128 in
  let p = buf_add b in
  (match d with
  | P_namespace (prefix, uri) ->
      p (Printf.sprintf "declare namespace %s = %s" prefix (string_literal uri))
  | P_default_element_ns uri ->
      p ("declare default element namespace " ^ string_literal uri)
  | P_default_function_ns uri ->
      p ("declare default function namespace " ^ string_literal uri)
  | P_boundary_space_preserve preserve ->
      p ("declare boundary-space " ^ if preserve then "preserve" else "strip")
  | P_option (q, v) ->
      p (Printf.sprintf "declare option %s %s" (qname q) (string_literal v))
  | P_variable (v, t, init) ->
      p ("declare variable $" ^ qname v);
      Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) t;
      (match init with
      | Some e ->
          p " := ";
          expr b e
      | None -> p " external")
  | P_function { fname; params; return_type; body; kind } ->
      p ("declare " ^ function_kind_to_source kind ^ "function " ^ qname fname);
      p "(";
      List.iteri
        (fun i (v, t) ->
          if i > 0 then p ", ";
          p ("$" ^ qname v);
          Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) t)
        params;
      p ")";
      Option.iter (fun t -> p (" as " ^ Seq_type.to_string t)) return_type;
      (match body with
      | Some (E_block stmts) ->
          p " { ";
          List.iteri
            (fun i s ->
              if i > 0 then p "; ";
              statement b s)
            stmts;
          p " }"
      | Some e ->
          p " { ";
          expr b e;
          p " }"
      | None -> p " external")
  | P_module_import { prefix; uri; locations } ->
      p "import module ";
      Option.iter (fun pr -> p (Printf.sprintf "namespace %s = " pr)) prefix;
      p (string_literal uri);
      if locations <> [] then begin
        p " at ";
        List.iteri
          (fun i l ->
            if i > 0 then p ", ";
            p (string_literal l))
          locations
      end);
  Buffer.contents b

let program_to_source (prog : prog) =
  let b = Buffer.create 512 in
  (match prog.library_module with
  | Some m ->
      buf_add b
        (Printf.sprintf "module namespace %s = %s" m.mod_prefix
           (string_literal m.mod_uri));
      (match m.mod_port with
      | Some port -> buf_add b (Printf.sprintf " port:%d" port)
      | None -> ());
      buf_add b ";\n"
  | None -> ());
  List.iter
    (fun d ->
      buf_add b (prolog_decl_to_source d);
      buf_add b ";\n")
    prog.prolog;
  (match prog.body with
  | Some e ->
      buf_add b (expr_to_source e);
      buf_add b "\n"
  | None -> ());
  Buffer.contents b
