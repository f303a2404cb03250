open Xmlb
module A = Xdm_atomic

let rewrites = ref 0

let fired e =
  incr rewrites;
  e

let rewrite_count () = !rewrites

let passes = ref 1
let last_passes () = !passes

let is_count_call qn = qn.Qname.local = "count" && qn.Qname.uri = Some Qname.Ns.fn
let fn_call name args = Ast.E_call (Qname.make ~uri:Qname.Ns.fn name, args)

let literal_bool = function
  | Ast.E_literal (A.Boolean b) -> Some b
  | Ast.E_call ({ Qname.local = "true"; uri = Some u; _ }, [])
    when u = Qname.Ns.fn ->
      Some true
  | Ast.E_call ({ Qname.local = "false"; uri = Some u; _ }, [])
    when u = Qname.Ns.fn ->
      Some false
  | _ -> None

let literal_zero = function
  | Ast.E_literal (A.Integer 0) -> true
  | _ -> false

let mirror_comp = Focus_analysis.mirror_comp

(* ------------------------------------------------------------------ *)
(* generic one-level traversal (shared, see {!Focus_analysis})         *)

let map_children = Focus_analysis.map_children
let exists_expr = Focus_analysis.exists_expr

(* ------------------------------------------------------------------ *)
(* positional-predicate / focus analyses (shared, see {!Focus_analysis}) *)

let uses_focus = Focus_analysis.uses_focus
let has_positional = Focus_analysis.has_positional
let uses_last = Focus_analysis.uses_last
let uses_position = Focus_analysis.uses_position

(* ------------------------------------------------------------------ *)
(* literal let inlining                                                *)

exception Cannot_inline

let clause_binds qn = function
  | Ast.For_clause { var; pos_var; _ } ->
      Qname.equal var qn
      || (match pos_var with Some p -> Qname.equal p qn | None -> false)
  | Ast.Let_clause { var; _ } -> Qname.equal var qn

(* Substitute [$qn := lit] in [e]. Stops descending at binders that
   shadow [qn]; refuses ([Cannot_inline]) on scripting blocks that
   mention the variable at all, since a block may re-declare or
   [set $qn := …] it. *)
let substitute qn lit e =
  let rec sub (e : Ast.expr) =
    match e with
    | Ast.E_var q when Qname.equal q qn -> Ast.E_literal lit
    | Ast.E_block _ ->
        if
          exists_expr
            (function
              | Ast.E_var q -> Qname.equal q qn
              | Ast.E_block stmts ->
                  List.exists
                    (function
                      | Ast.S_var_decl (v, _, _) | Ast.S_assign (v, _) ->
                          Qname.equal v qn
                      | _ -> false)
                    stmts
              | _ -> false)
            e
        then raise Cannot_inline
        else e
    | Ast.E_flwor { clauses; where; order; return } ->
        let clauses, shadowed = sub_clauses [] false clauses in
        if shadowed then Ast.E_flwor { clauses; where; order; return }
        else
          Ast.E_flwor
            {
              clauses;
              where = Option.map sub where;
              order = List.map (fun o -> { o with Ast.key = sub o.Ast.key }) order;
              return = sub return;
            }
    | Ast.E_hash_join j ->
        (* sources are outside both bindings; each key sees only its
           own variable; where/order/return see both *)
        let lb = Qname.equal j.Ast.jleft_var qn
        and rb = Qname.equal j.Ast.jright_var qn in
        Ast.E_hash_join
          {
            j with
            jleft_source = sub j.Ast.jleft_source;
            jright_source = sub j.Ast.jright_source;
            jleft_key = (if lb then j.Ast.jleft_key else sub j.Ast.jleft_key);
            jright_key = (if rb then j.Ast.jright_key else sub j.Ast.jright_key);
            jwhere =
              (if lb || rb then j.Ast.jwhere else Option.map sub j.Ast.jwhere);
            jorder =
              (if lb || rb then j.Ast.jorder
               else
                 List.map
                   (fun o -> { o with Ast.key = sub o.Ast.key })
                   j.Ast.jorder);
            jreturn = (if lb || rb then j.Ast.jreturn else sub j.Ast.jreturn);
          }
    | Ast.E_quantified (q, binds, body) ->
        let binds, shadowed =
          List.fold_left
            (fun (acc, shadowed) (v, t, src) ->
              let src = if shadowed then src else sub src in
              ((v, t, src) :: acc, shadowed || Qname.equal v qn))
            ([], false) binds
        in
        let binds = List.rev binds in
        Ast.E_quantified (q, binds, if shadowed then body else sub body)
    | Ast.E_typeswitch (op, cases, (dv, db)) ->
        let cases =
          List.map
            (fun c ->
              match c.Ast.case_var with
              | Some v when Qname.equal v qn -> c
              | _ -> { c with Ast.case_body = sub c.Ast.case_body })
            cases
        in
        let db =
          match dv with Some v when Qname.equal v qn -> db | _ -> sub db
        in
        Ast.E_typeswitch (sub op, cases, (dv, db))
    | Ast.E_transform (binds, m, r) ->
        let binds, shadowed =
          List.fold_left
            (fun (acc, shadowed) (v, src) ->
              let src = if shadowed then src else sub src in
              ((v, src) :: acc, shadowed || Qname.equal v qn))
            ([], false) binds
        in
        let binds = List.rev binds in
        if shadowed then Ast.E_transform (binds, m, r)
        else Ast.E_transform (binds, sub m, sub r)
    | e -> map_children sub e
  and sub_clauses acc shadowed = function
    | [] -> (List.rev acc, shadowed)
    | c :: rest ->
        let c =
          if shadowed then c
          else
            match c with
            | Ast.For_clause f -> Ast.For_clause { f with source = sub f.source }
            | Ast.Let_clause l -> Ast.Let_clause { l with value = sub l.value }
        in
        sub_clauses (c :: acc) (shadowed || clause_binds qn c) rest
  in
  sub e

(* Drop the first [let $x := <literal>] clause (no declared type) and
   substitute the literal into the clause's scope. Returns the
   rewritten expression, or [None] when no clause is inlinable. *)
let rec inline_literal_let clauses where order return =
  let rec try_at before = function
    | [] -> None
    | (Ast.Let_clause { var; var_type = None; value = Ast.E_literal lit } as c)
      :: rest -> (
        let shadowed_later = List.exists (clause_binds var) rest in
        match
          let rest = List.map (sub_clause var lit) (mark_suffix var rest) in
          let sub e = if shadowed_later then e else substitute var lit e in
          ( rest,
            Option.map sub where,
            List.map (fun o -> { o with Ast.key = sub o.Ast.key }) order,
            sub return )
        with
        | rest, where, order, return -> (
            match (List.rev_append before rest, where, order) with
            | [], None, [] -> Some return
            | clauses, where, order ->
                Some (Ast.E_flwor { clauses; where; order; return }))
        | exception Cannot_inline -> try_at (c :: before) rest)
    | c :: rest -> try_at (c :: before) rest
  in
  try_at [] clauses

(* tag each suffix clause with whether [var] has been re-bound before it *)
and mark_suffix var rest =
  let _, tagged =
    List.fold_left
      (fun (shadowed, acc) c ->
        (shadowed || clause_binds var c, (shadowed, c) :: acc))
      (false, []) rest
  in
  List.rev tagged

and sub_clause var lit (shadowed, c) =
  if shadowed then c
  else
    match c with
    | Ast.For_clause f ->
        Ast.For_clause { f with source = substitute var lit f.source }
    | Ast.Let_clause l ->
        Ast.Let_clause { l with value = substitute var lit l.value }

(* ------------------------------------------------------------------ *)
(* equi-join planning                                                  *)

let mentions_var qn e =
  exists_expr (function Ast.E_var v -> Qname.equal v qn | _ -> false) e

(* A join key must be a step path rooted at the join variable —
   [$v/@k], [$v//sku], [($v/k)[1]] … Such a path yields nodes, whose
   atoms are always xs:untypedAtomic, so under both [eq] and [=] the
   keys compare as strings and a string-keyed hash table is exact
   (untyped-vs-untyped never promotes to numeric). A bare [$v] is NOT
   a key: the bound item could be an atomic of any type, and typed
   comparison semantics would diverge from string hashing. *)
let rec steps_only = function
  | Ast.E_step _ -> true
  | Ast.E_path (a, b) -> steps_only a && steps_only b
  | Ast.E_filter (a, _) -> steps_only a
  | _ -> false

let rec var_step_path var = function
  | Ast.E_path (base, tail) -> var_rooted var base && steps_only tail
  | Ast.E_filter (base, _) -> var_step_path var base
  | _ -> false

and var_rooted var = function
  | Ast.E_var v -> Qname.equal v var
  | e -> var_step_path var e

(* ordered conjuncts of a (left-associated) [and] chain *)
let rec conjuncts = function
  | Ast.E_and (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | c :: rest -> Some (List.fold_left (fun a b -> Ast.E_and (a, b)) c rest)

(* Recognise [pred] as an equi-join comparison between a left-rooted
   and a right-rooted key, in either operand order. Keys that might
   observe the focus (via opaque calls) are conservatively refused.
   Returns (left key, right key, is-general-comparison). *)
let key_pair ~lv ~rv pred =
  let classify a b general =
    let ok v other k =
      var_step_path v k && not (mentions_var other k) && not (uses_focus k)
    in
    if ok lv rv a && ok rv lv b then Some (a, b, general)
    else if ok rv lv a && ok lv rv b then Some (b, a, general)
    else None
  in
  match pred with
  | Ast.E_value_comp (Ast.Eq, a, b) -> classify a b false
  | Ast.E_general_comp (Ast.Eq, a, b) -> classify a b true
  | _ -> None

(* a scripting block in the where clause could observe how often and
   in which order the filter runs; those FLWORs keep the nested-loop
   plan *)
let has_scripting = exists_expr (function Ast.E_block _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* the rewrite rules                                                   *)

(* One bottom-up pass; [go] recurses, then local rules fire on a node
   that is not updating. It returns whether the node is updating,
   found by {!Ast.updating} from its operands' answers, so once per
   node. *)
let rec go (e : Ast.expr) : Ast.expr * bool =
  let updating = ref [] in
  let e =
    map_children
      (fun c ->
        let c, upd = go c in
        if upd then updating := c :: !updating;
        c)
      e
  in
  let upd = Ast.updating_with !updating e in
  ((if upd then e else rules e), upd)

and rules e =
  match e with
  (* constant folding: arithmetic on numeric literals *)
  | Ast.E_arith (op, Ast.E_literal a, Ast.E_literal b)
    when A.is_numeric a && A.is_numeric b -> (
      let f =
        match op with
        | Ast.Add -> A.add
        | Ast.Sub -> A.subtract
        | Ast.Mul -> A.multiply
        | Ast.Div -> A.divide
        | Ast.Idiv -> A.integer_divide
        | Ast.Mod -> A.modulo
      in
      match f a b with
      | v -> fired (Ast.E_literal v)
      (* left to fail at run time, where it is reached *)
      | exception Xq_error.Error _ -> e)
  (* boolean short-circuits with constants *)
  | Ast.E_and (a, b) -> (
      match (literal_bool a, literal_bool b) with
      | Some false, _ | _, Some false ->
          fired (Ast.E_literal (A.Boolean false))
      | Some true, _ -> fired (fn_call "boolean" [ b ])
      | _, Some true -> fired (fn_call "boolean" [ a ])
      | _ -> e)
  | Ast.E_or (a, b) -> (
      match (literal_bool a, literal_bool b) with
      | Some true, _ | _, Some true -> fired (Ast.E_literal (A.Boolean true))
      | Some false, _ -> fired (fn_call "boolean" [ b ])
      | _, Some false -> fired (fn_call "boolean" [ a ])
      | _ -> e)
  (* constant conditionals *)
  | Ast.E_if (c, t, f) -> (
      match literal_bool c with
      | Some true -> fired t
      | Some false -> fired f
      | None -> e)
  (* //x : descendant-or-self::node()/child::x  →  descendant::x *)
  | Ast.E_path
      ( Ast.E_path (base, Ast.E_step (Ast.Descendant_or_self, Ast.Kind_test Ast.Any_kind, [])),
        Ast.E_step (Ast.Child, test, preds) )
    when not (has_positional preds) ->
      fired (Ast.E_path (base, Ast.E_step (Ast.Descendant, test, preds)))
  (* e/self::node() → e *)
  | Ast.E_path (base, Ast.E_step (Ast.Self, Ast.Kind_test Ast.Any_kind, [])) ->
      fired base
  (* predicate [true()] elimination *)
  | Ast.E_step (axis, test, preds)
    when List.exists (fun p -> literal_bool p = Some true) preds ->
      fired
        (Ast.E_step
           (axis, test, List.filter (fun p -> literal_bool p <> Some true) preds))
  | Ast.E_filter (base, preds)
    when List.exists (fun p -> literal_bool p = Some true) preds -> (
      match List.filter (fun p -> literal_bool p <> Some true) preds with
      | [] -> fired base
      | preds -> fired (Ast.E_filter (base, preds)))
  (* count(e) = 0 → empty(e); count(e) != 0 / > 0 / >= 1 → exists(e) *)
  | Ast.E_general_comp (Ast.Eq, Ast.E_call (qn, [ arg ]), z)
  | Ast.E_value_comp (Ast.Eq, Ast.E_call (qn, [ arg ]), z)
    when is_count_call qn && literal_zero z ->
      fired (fn_call "empty" [ arg ])
  | Ast.E_general_comp (Ast.Ne, Ast.E_call (qn, [ arg ]), z)
  | Ast.E_value_comp (Ast.Ne, Ast.E_call (qn, [ arg ]), z)
  | Ast.E_general_comp (Ast.Gt, Ast.E_call (qn, [ arg ]), z)
  | Ast.E_value_comp (Ast.Gt, Ast.E_call (qn, [ arg ]), z)
    when is_count_call qn && literal_zero z ->
      fired (fn_call "exists" [ arg ])
  | Ast.E_general_comp (Ast.Ge, Ast.E_call (qn, [ arg ]), Ast.E_literal (A.Integer 1))
  | Ast.E_value_comp (Ast.Ge, Ast.E_call (qn, [ arg ]), Ast.E_literal (A.Integer 1))
    when is_count_call qn ->
      fired (fn_call "exists" [ arg ])
  (* count(e) < 1 / <= 0 → empty(e) *)
  | Ast.E_general_comp (Ast.Lt, Ast.E_call (qn, [ arg ]), Ast.E_literal (A.Integer 1))
  | Ast.E_value_comp (Ast.Lt, Ast.E_call (qn, [ arg ]), Ast.E_literal (A.Integer 1))
    when is_count_call qn ->
      fired (fn_call "empty" [ arg ])
  | Ast.E_general_comp (Ast.Le, Ast.E_call (qn, [ arg ]), z)
  | Ast.E_value_comp (Ast.Le, Ast.E_call (qn, [ arg ]), z)
    when is_count_call qn && literal_zero z ->
      fired (fn_call "empty" [ arg ])
  (* normalise literal-on-the-left count comparisons so the rules
     above — and the streaming bounded-count pull — see one shape *)
  | Ast.E_general_comp (op, (Ast.E_literal _ as lit), (Ast.E_call (qn, [ _ ]) as c))
    when is_count_call qn ->
      fired (Ast.E_general_comp (mirror_comp op, c, lit))
  | Ast.E_value_comp (op, (Ast.E_literal _ as lit), (Ast.E_call (qn, [ _ ]) as c))
    when is_count_call qn ->
      fired (Ast.E_value_comp (mirror_comp op, c, lit))
  (* general comparison of singleton literals → value comparison
     (skips the existential pairing loop at run time) *)
  | Ast.E_general_comp (op, (Ast.E_literal _ as a), (Ast.E_literal _ as b)) ->
      fired (Ast.E_value_comp (op, a, b))
  (* fn:concat over literals folds to one string literal *)
  | Ast.E_call ({ Qname.local = "concat"; uri = Some u; _ }, args)
    when u = Qname.Ns.fn
         && args <> []
         && List.for_all (function Ast.E_literal _ -> true | _ -> false) args ->
      fired
        (Ast.E_literal
           (A.String
              (String.concat ""
                 (List.map
                    (function
                      | Ast.E_literal a -> A.to_string a
                      | _ -> assert false)
                    args))))
  (* flatten nested sequences; () members vanish in the same stroke *)
  | Ast.E_sequence es when List.exists (function Ast.E_sequence _ -> true | _ -> false) es ->
      fired
        (Ast.E_sequence
           (List.concat_map
              (function Ast.E_sequence inner -> inner | e -> [ e ])
              es))
  (* (e) → e *)
  | Ast.E_sequence [ e ] -> fired e
  (* two-[for] equi-join FLWOR → hash join. Preconditions: plain for
     clauses (no position variables, no declared types), independent
     right source (else the build side is correlated and cannot be
     hashed once), and the join comparison must be the FIRST conjunct
     of the where clause — a later conjunct may not be reordered past
     an earlier one that could raise. *)
  | Ast.E_flwor
      {
        clauses =
          [
            Ast.For_clause
              { var = lv; pos_var = None; var_type = None; source = ls };
            Ast.For_clause
              { var = rv; pos_var = None; var_type = None; source = rs };
          ];
        where = Some w;
        order;
        return;
      }
    when Ablation.current.join_planning
         && (not (Qname.equal lv rv))
         && (not (mentions_var lv rs))
         && not (has_scripting w) -> (
      match conjuncts w with
      | jpred :: rest -> (
          match key_pair ~lv ~rv jpred with
          | Some (lk, rk, general) ->
              fired
                (Ast.E_hash_join
                   {
                     jleft_var = lv;
                     jleft_source = ls;
                     jleft_key = lk;
                     jright_var = rv;
                     jright_source = rs;
                     jright_key = rk;
                     jgeneral = general;
                     jwhere = conjoin rest;
                     jorder = order;
                     jreturn = return;
                   })
          | None -> e)
      | [] -> e)
  (* literal let elimination: let $x := 1 return … $x … *)
  | Ast.E_flwor { clauses; where; order; return } -> (
      match inline_literal_let clauses where order return with
      | Some e' -> fired e'
      | None -> e)
  | e -> e

(* ------------------------------------------------------------------ *)
(* the driver: a budgeted fixpoint                                     *)

(* A single bottom-up pass can miss follow-on opportunities (inlining a
   let exposes constant arithmetic; folding fn:concat exposes a
   literal comparison), so [go] re-runs until no rule fires. The pass
   budget bounds pathological inputs; in practice two or three passes
   reach the fixpoint. *)
let default_max_passes = 10

let fixpoint ?(max_passes = default_max_passes) f x =
  let rec loop n x =
    let before = !rewrites in
    let x = f x in
    if !rewrites = before || n >= max_passes then begin
      passes := n;
      x
    end
    else loop (n + 1) x
  in
  loop 1 x

let pass e = fst (go e)
let optimize_expr ?max_passes e = fixpoint ?max_passes pass e

let optimize ?max_passes (prog : Ast.prog) =
  let pass_prog (prog : Ast.prog) =
    let prolog =
      List.map
        (function
          | Ast.P_function f ->
              Ast.P_function { f with Ast.body = Option.map pass f.Ast.body }
          | Ast.P_variable (v, t, e) -> Ast.P_variable (v, t, Option.map pass e)
          | d -> d)
        prog.Ast.prolog
    in
    { prog with Ast.prolog; body = Option.map pass prog.Ast.body }
  in
  fixpoint ?max_passes pass_prog prog
