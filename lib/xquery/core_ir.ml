(* The desugared core the closure compiler emits code from.

   [of_ast] lowers every surface form into a compact core:

   - variable references are resolved to integer frame slots at
     lowering time (each binding site gets a unique slot, so a run
     needs one pre-sized array instead of per-binding map inserts);
     scripting declarations and assignments resolve the same way;
   - FLWOR and quantifier clauses become one clause list, each
     binding a slot;
   - grouping sugar ([ordered {}], [unordered {}], [{e}]) disappears;
   - non-sequential single-statement blocks become their expression;
   - call sites resolve statically: xs: constructors become casts,
     fn: builtins capture their implementation, and [fn:count(e)]
     compared with an integer literal becomes [C_count_comp].

   Every core node keeps the surface expression it was lowered from
   ([ast]): the emitter consults it for the static shape analyses
   (bounded positional takes, sortedness, value-index probes, which
   forms stream). [upd] is [Ast.is_updating] of that expression,
   found once per node from its operands' answers. The lowering is
   total: no form is left for another evaluator. *)

open Xmlb
module A = Xdm_atomic

type slot = int

type t = { d : desc; ast : Ast.expr; upd : bool }

and desc =
  | C_atomic of A.t
  | C_text_literal of string
  | C_slot of slot  (** lexically resolved local binding *)
  | C_free of Qname.t  (** unresolved: global / host-bound variable *)
  | C_context_item
  | C_root
  | C_sequence of t list
  | C_range of t * t
  | C_if of t * t * t
  | C_or of t * t
  | C_and of t * t
  | C_value_comp of Ast.value_comp * t * t
  | C_general_comp of Ast.value_comp * t * t
  | C_count_comp of Ast.value_comp * t * int
      (** [fn:count(e) op k], literal on the right *)
  | C_node_comp of Ast.node_comp * t * t
  | C_arith of Ast.arith * t * t
  | C_unary_minus of t
  | C_union of t * t
  | C_intersect of t * t
  | C_except of t * t
  | C_instance_of of t * Ast.seq_type
  | C_treat_as of t * Ast.seq_type
  | C_castable_as of t * A.atomic_type * bool
  | C_cast_as of t * A.atomic_type * bool
  | C_step of Ast.axis * Ast.node_test * t list * Ast.expr list
      (** compiled predicates paired with their surface forms (for the
          value-index probe, which consumes the leading predicate) *)
  | C_path of t * t
  | C_filter of t * t list
  | C_flwor of {
      clauses : clause list;
      where : t option;
      keys : (t * Ast.order_spec) list;  (** [] without [order by] *)
      return : t;
    }
  | C_hash_join of join
  | C_quantified of Ast.quantifier * clause list * t  (** [for] clauses *)
  | C_typeswitch of t * (slot option * Ast.seq_type * t) list * (slot option * t)
  | C_ftcontains of t * ft
  | C_cast_call of A.atomic_type * t  (** xs: constructor function *)
  | C_builtin_call of Qname.t * Functions.impl * t list
      (** call statically resolved to an fn: builtin *)
  | C_call of Qname.t * t list  (** generic runtime-dispatched call *)
  | C_direct_element of {
      name : Qname.t;
      attributes : (Qname.t * attr_part list) list;
      children : t list;
    }
  | C_computed_element of t * t
  | C_computed_attribute of t * t
  | C_computed_text of t
  | C_computed_comment of t
  | C_computed_pi of t * t
  | C_computed_document of t
  (* updates *)
  | C_insert of Ast.insert_position * t * t  (** source, target *)
  | C_delete of t
  | C_replace of bool * t * t  (** value of?, target, source *)
  | C_rename of t * t
  | C_transform of (slot * t) list * t * t
  (* scripting *)
  | C_block of stmt list
  (* browser extensions *)
  | C_event_attach of t * Ast.event_binding * t * Qname.t  (** event, target *)
  | C_event_detach of t * t * Qname.t  (** event, target, listener *)
  | C_event_trigger of t * t  (** event, target *)
  | C_set_style of t * t * t  (** property, target, value *)
  | C_get_style of t * t  (** property, target *)

and attr_part = CA_text of string | CA_enclosed of t

and clause =
  | Cl_for of {
      slot : slot;
      pos_slot : slot option;
      var : Qname.t;
      var_type : Ast.seq_type option;
      source : t;
    }
  | Cl_let of { slot : slot; var : Qname.t; var_type : Ast.seq_type option; value : t }

and join = {
  left_slot : slot;
  left_source : t;
  left_key : t;
  right_slot : slot;
  right_source : t;
  right_key : t;
  general : bool;
  jwhere : t option;
  jkeys : (t * Ast.order_spec) list;
  jreturn : t;
}

and ft = F_words of t * bool  (** stemming *) | F_and of ft * ft | F_or of ft * ft | F_not of ft

and stmt =
  | S_expr of t
  | S_var of slot * Qname.t * Ast.seq_type option * t option
  | S_assign of var_ref * t
  | S_while of t * stmt list
  | S_break
  | S_continue
  | S_exit_with of t

and var_ref = Local of slot | Global of Qname.t

(* ------------------------------------------------------------------ *)
(* lowering                                                            *)

(* lexical scope: innermost binding first *)
type scope = (string * slot) list

(* the lowering state: the slot counter, and the static context call
   sites resolve against *)
type st = { mutable next : slot; mutable high : slot; static : Static_context.t }

let new_slot st =
  let s = st.next in
  st.next <- s + 1;
  if st.next > st.high then st.high <- st.next;
  s

let bind st scope var =
  let slot = new_slot st in
  (slot, (Qname.to_clark var, slot) :: scope)

let bind_opt st scope = function
  | None -> (None, scope)
  | Some var ->
      let slot, scope = bind st scope var in
      (Some slot, scope)

let is_fn_count = function
  | { d = C_builtin_call ({ Qname.local = "count"; uri = Some u; _ }, _, [ arg ]); _ }
    when String.equal u Qname.Ns.fn ->
      Some arg
  | _ -> None

(* The operands found updating while a node is lowered. *)
type operands = { mutable updating : Ast.expr list }

(* [c], lowered from [e], with its [upd]: {!Ast.updating} of [e] from
   its operands' answers *)
let with_upd e ops c =
  let upd = Ast.updating_with ops.updating e in
  if upd = c.upd then c else { c with upd }

let rec of_ast st (scope : scope) (e : Ast.expr) : t =
  let ops = { updating = [] } in
  with_upd e ops (lower_node st ops scope e)

(* [x], an operand of the node lowered with [ops], lowered in [scope] *)
and operand st ops scope x =
  let c = of_ast st scope x in
  if c.upd then ops.updating <- x :: ops.updating;
  c

and lower_node st ops scope e =
  let k d = { d; ast = e; upd = false } in
  let sub = operand st ops scope in
  match e with
  | Ast.E_literal a -> k (C_atomic a)
  | Ast.E_text_literal s -> k (C_text_literal s)
  | Ast.E_var qn -> (
      match List.assoc_opt (Qname.to_clark qn) scope with
      | Some slot -> k (C_slot slot)
      | None -> k (C_free qn))
  | Ast.E_context_item -> k C_context_item
  | Ast.E_root -> k C_root
  | Ast.E_sequence es -> k (C_sequence (List.map sub es))
  | Ast.E_range (a, b) -> k (C_range (sub a, sub b))
  | Ast.E_if (c, t, f) -> k (C_if (sub c, sub t, sub f))
  | Ast.E_or (a, b) -> k (C_or (sub a, sub b))
  | Ast.E_and (a, b) -> k (C_and (sub a, sub b))
  | Ast.E_value_comp (op, a, b) -> k (comparison st ops scope op a b ~general:false)
  | Ast.E_general_comp (op, a, b) -> k (comparison st ops scope op a b ~general:true)
  | Ast.E_node_comp (op, a, b) -> k (C_node_comp (op, sub a, sub b))
  | Ast.E_arith (op, a, b) -> k (C_arith (op, sub a, sub b))
  | Ast.E_unary_minus a -> k (C_unary_minus (sub a))
  | Ast.E_union (a, b) -> k (C_union (sub a, sub b))
  | Ast.E_intersect (a, b) -> k (C_intersect (sub a, sub b))
  | Ast.E_except (a, b) -> k (C_except (sub a, sub b))
  | Ast.E_instance_of (a, ty) -> k (C_instance_of (sub a, ty))
  | Ast.E_treat_as (a, ty) -> k (C_treat_as (sub a, ty))
  | Ast.E_castable_as (a, ty, opt) -> k (C_castable_as (sub a, ty, opt))
  | Ast.E_cast_as (a, ty, opt) -> k (C_cast_as (sub a, ty, opt))
  | Ast.E_step (axis, test, preds) ->
      k (C_step (axis, test, List.map sub preds, preds))
  | Ast.E_path (a, b) -> k (C_path (sub a, sub b))
  | Ast.E_filter (a, preds) -> k (C_filter (sub a, List.map sub preds))
  | Ast.E_flwor { clauses; where; order; return } ->
      let clauses, scope = lower_clauses st ops scope clauses in
      let sub = operand st ops scope in
      k
        (C_flwor
           {
             clauses;
             where = Option.map sub where;
             keys = List.map (fun o -> (sub o.Ast.key, o)) order;
             return = sub return;
           })
  | Ast.E_hash_join j ->
      let left_source = sub j.Ast.jleft_source in
      let left_slot, lscope = bind st scope j.Ast.jleft_var in
      let left_key = operand st ops lscope j.Ast.jleft_key in
      let right_source = sub j.Ast.jright_source in
      let right_slot, rscope = bind st scope j.Ast.jright_var in
      let right_key = operand st ops rscope j.Ast.jright_key in
      let both = (Qname.to_clark j.Ast.jright_var, right_slot) :: lscope in
      let sub = operand st ops both in
      k
        (C_hash_join
           {
             left_slot;
             left_source;
             left_key;
             right_slot;
             right_source;
             right_key;
             general = j.Ast.jgeneral;
             jwhere = Option.map sub j.Ast.jwhere;
             jkeys = List.map (fun o -> (sub o.Ast.key, o)) j.Ast.jorder;
             jreturn = sub j.Ast.jreturn;
           })
  | Ast.E_quantified (quant, binds, body) ->
      let clauses, scope =
        lower_clauses st ops scope
          (List.map
             (fun (var, var_type, source) ->
               Ast.For_clause { var; pos_var = None; var_type; source })
             binds)
      in
      k (C_quantified (quant, clauses, operand st ops scope body))
  | Ast.E_typeswitch (op, cases, (dvar, dbody)) ->
      let branch var body =
        let slot, scope = bind_opt st scope var in
        (slot, operand st ops scope body)
      in
      let case c =
        let slot, body = branch c.Ast.case_var c.Ast.case_body in
        (slot, c.Ast.case_type, body)
      in
      k (C_typeswitch (sub op, List.map case cases, branch dvar dbody))
  | Ast.E_ftcontains (a, sel) ->
      let rec ft = function
        | Ast.Ft_words (w, opts) -> F_words (sub w, List.mem Ast.Ft_stemming opts)
        | Ast.Ft_and (x, y) -> F_and (ft x, ft y)
        | Ast.Ft_or (x, y) -> F_or (ft x, ft y)
        | Ast.Ft_not x -> F_not (ft x)
      in
      k (C_ftcontains (sub a, ft sel))
  | Ast.E_call (qn, args) -> k (lower_call st ops scope qn args)
  | Ast.E_ordered a | Ast.E_unordered a | Ast.E_enclosed a ->
      { (sub a) with ast = e }
  | Ast.E_direct_element { name; attributes; children } ->
      k
        (C_direct_element
           {
             name;
             attributes =
               List.map
                 (fun (an, parts) ->
                   ( an,
                     List.map
                       (function
                         | Ast.A_text s -> CA_text s
                         | Ast.A_enclosed e' -> CA_enclosed (sub e'))
                       parts ))
                 attributes;
             children = List.map sub children;
           })
  | Ast.E_computed_element (n, c) -> k (C_computed_element (sub n, sub c))
  | Ast.E_computed_attribute (n, c) -> k (C_computed_attribute (sub n, sub c))
  | Ast.E_computed_text a -> k (C_computed_text (sub a))
  | Ast.E_computed_comment a -> k (C_computed_comment (sub a))
  | Ast.E_computed_pi (n, c) -> k (C_computed_pi (sub n, sub c))
  | Ast.E_computed_document a -> k (C_computed_document (sub a))
  | Ast.E_insert (pos, source, target) -> k (C_insert (pos, sub source, sub target))
  | Ast.E_delete a -> k (C_delete (sub a))
  | Ast.E_replace { value_of; target; source } ->
      k (C_replace (value_of, sub target, sub source))
  | Ast.E_rename (target, name) -> k (C_rename (sub target, sub name))
  | Ast.E_transform (binds, modify, return) ->
      (* every copy source sees only the outer scope *)
      let sources = List.map (fun (var, src) -> (var, sub src)) binds in
      let copies, scope =
        List.fold_left
          (fun (acc, scope) (var, src) ->
            let slot, scope = bind st scope var in
            ((slot, src) :: acc, scope))
          ([], scope) sources
      in
      k
        (C_transform
           (List.rev copies, operand st ops scope modify, operand st ops scope return))
  | Ast.E_block [ Ast.S_expr a ] -> { (sub a) with ast = e }
  | Ast.E_block stmts -> k (C_block (lower_stmts st ops scope stmts))
  | Ast.E_event_attach { event; binding; target; listener } ->
      k (C_event_attach (sub event, binding, sub target, listener))
  | Ast.E_event_detach { event; target; listener } ->
      k (C_event_detach (sub event, sub target, listener))
  | Ast.E_event_trigger { event; target } -> k (C_event_trigger (sub event, sub target))
  | Ast.E_set_style { property; target; value } ->
      k (C_set_style (sub property, sub target, sub value))
  | Ast.E_get_style { property; target } -> k (C_get_style (sub property, sub target))

(* a comparison; [fn:count(e)] against an integer literal (either
   side) becomes [C_count_comp], which pulls at most k+1 items *)
and comparison st ops scope op a b ~general =
  let ca = operand st ops scope a and cb = operand st ops scope b in
  let int_lit = function Ast.E_literal (A.Integer n) -> Some n | _ -> None in
  match (is_fn_count ca, int_lit b, int_lit a, is_fn_count cb) with
  | Some arg, Some n, _, _ -> C_count_comp (op, arg, n)
  | _, _, Some n, Some arg -> C_count_comp (Focus_analysis.mirror_comp op, arg, n)
  | _ ->
      if general then C_general_comp (op, ca, cb) else C_value_comp (op, ca, cb)

and lower_clauses st ops scope clauses =
  let step (acc, scope) = function
    | Ast.For_clause { var; pos_var; var_type; source } ->
        let source = operand st ops scope source in
        let slot, scope = bind st scope var in
        let pos_slot, scope = bind_opt st scope pos_var in
        (Cl_for { slot; pos_slot; var; var_type; source } :: acc, scope)
    | Ast.Let_clause { var; var_type; value } ->
        let value = operand st ops scope value in
        let slot, scope = bind st scope var in
        (Cl_let { slot; var; var_type; value } :: acc, scope)
  in
  let rev, scope = List.fold_left step ([], scope) clauses in
  (List.rev rev, scope)

(* a declaration scopes over the statements after it; a while body is
   a block of its own *)
and lower_stmts st ops scope stmts =
  match stmts with
  | [] -> []
  | Ast.S_var_decl (var, var_type, init) :: rest ->
      let init = Option.map (operand st ops scope) init in
      let slot, scope' = bind st scope var in
      S_var (slot, var, var_type, init) :: lower_stmts st ops scope' rest
  | stmt :: rest ->
      let s =
        match stmt with
        | Ast.S_expr e -> S_expr (operand st ops scope e)
        | Ast.S_assign (var, e) ->
            let target =
              match List.assoc_opt (Qname.to_clark var) scope with
              | Some slot -> Local slot
              | None -> Global var
            in
            S_assign (target, operand st ops scope e)
        | Ast.S_while (cond, body) ->
            S_while (operand st ops scope cond, lower_stmts st ops scope body)
        | Ast.S_break -> S_break
        | Ast.S_continue -> S_continue
        | Ast.S_exit_with e -> S_exit_with (operand st ops scope e)
        | Ast.S_var_decl _ -> assert false (* matched above *)
      in
      s :: lower_stmts st ops scope rest

(* Call sites resolve through the compile-time static context exactly
   as {!Eval.call_function} would at run time: xs: constructors become
   direct casts, calls that resolve to an fn: builtin capture its
   implementation. Anything else — user functions (re-dispatched
   through the compiled-body table), externals, unknown names — stays
   a generic call through {!Eval.call_function}, which repeats the
   full resolution per call. The cache key's static-context
   fingerprint guarantees a cached compilation is only replayed
   against a context with the same declarations, so compile-time
   resolution is safe. *)
and lower_call st ops scope qn args =
  let nargs = List.length args in
  let cargs () = List.map (operand st ops scope) args in
  let static = st.static in
  if Static_context.is_blocked static qn then C_call (qn, cargs ())
  else
    match qn.Qname.uri with
    | Some u when String.equal u Qname.Ns.xs && nargs = 1 -> (
        match A.type_of_name qn.Qname.local with
        | Some ty -> C_cast_call (ty, operand st ops scope (List.hd args))
        | None -> C_call (qn, cargs ()))
    | _ ->
        if
          Option.is_some (Static_context.find_function static qn ~arity:nargs)
          || Option.is_some (Static_context.find_external static qn ~arity:nargs)
        then C_call (qn, cargs ())
        else (
          match Functions.find qn ~arity:nargs with
          | Some impl -> C_builtin_call (qn, impl, cargs ())
          | None -> C_call (qn, cargs ()))

(* ------------------------------------------------------------------ *)
(* freshness                                                           *)

(* Can [c] return only nodes that its own evaluation has just built
   and that nothing else refers to? Then a constructor, [insert] or
   [replace] links those nodes where they are needed instead of
   deep-copying them (XQuery 3.1 §3.9.1.3 copies, but nobody can tell
   a copy of a node that nothing else reaches from the node itself).
   Fresh: every constructor (direct or computed element, attribute,
   text, comment, PI, document), text and atomic literals (atomics are
   never copied), and sequences, conditionals, typeswitch branches and
   FLWOR or hash-join returns built only of fresh forms — a loop's
   return builds new nodes on every iteration. Not fresh: whatever can
   return a node built or kept elsewhere — variables, function calls,
   paths, steps, filters (a step from a fresh node returns a node that
   has a parent) and [copy … modify], whose copy its variable still
   names. A document node in fresh content is still replaced by copies
   of its children. *)
let rec fresh (c : t) =
  match c.d with
  | C_atomic _ | C_text_literal _ | C_direct_element _ | C_computed_element _
  | C_computed_attribute _ | C_computed_text _ | C_computed_comment _ | C_computed_pi _
  | C_computed_document _ ->
      true
  | C_sequence cs -> List.for_all fresh cs
  | C_if (_, t, f) -> fresh t && fresh f
  | C_typeswitch (_, cases, (_, default)) ->
      List.for_all (fun (_, _, body) -> fresh body) cases && fresh default
  | C_flwor { return; _ } -> fresh return
  | C_hash_join j -> fresh j.jreturn
  | _ -> false

(* [sequential]: a sequential function's body block keeps statement
   semantics (updates applied at its boundary) even when it holds a
   single expression *)
let lower static ?(params = []) ?(sequential = false) (e : Ast.expr) : t * int =
  let n = List.length params in
  let st = { next = n; high = n; static } in
  let scope = List.rev (List.mapi (fun i qn -> (Qname.to_clark qn, i)) params) in
  let core =
    match e with
    | Ast.E_block stmts when sequential ->
        let ops = { updating = [] } in
        with_upd e ops { d = C_block (lower_stmts st ops scope stmts); ast = e; upd = false }
    | _ -> of_ast st scope e
  in
  (core, st.high)
