(* The closure compiler: emits one OCaml closure per {!Core_ir} node,
   composed bottom-up at compile time, so a run performs direct calls
   instead of re-dispatching on the AST at every node. Variable access
   is a frame-array read (slots resolved by the lowering pass), hot
   shapes (steps with name tests, predicate chains, singleton
   arithmetic/comparison, FLWOR loops) are specialized, and everything
   the compiler does not own delegates to the tree-walking {!Eval} —
   including the streaming, value-index and hash-join fast paths, which
   compiled code must reach, not bypass.

   Exact-parity rules the emitter follows:

   - every closure replicates the corresponding [Eval.eval] arm
     operation-for-operation (same evaluation order, same error codes
     and messages, same metric increments);
   - effective-boolean contexts and bounded positional takes delegate
     to [Eval.eval_seq] on the original AST when streaming is on, so
     pull counters match the interpreter pull-for-pull;
   - [C_opaque] nodes rebind the frame's live ref cells into the
     dynamic context ({!Dynamic_context.bind_ref}) and hand the AST to
     [Eval.eval] — scripting assignment through the shared cells
     behaves exactly as interpreted code. *)

open Xmlb
module A = Xdm_atomic
module I = Xdm_item
module D = Dynamic_context
module C = Core_ir

type env = { ctx : D.t; frame : I.sequence ref array }
type fn_impl = D.t -> I.sequence list -> I.sequence

type prog_code = {
  body : (D.t -> I.sequence) option;
  fns : ((int * int * int) * fn_impl) list;
}

(* ablation switch, mirroring Eval.set_streaming *)
let enabled_flag = ref true
let set_compiled_eval b = enabled_flag := b
let enabled () = !enabled_flag

(* always-on counters for browser:stats(); the obs mirrors below are
   metric-guarded like every other instrumented subsystem *)
let stat_programs = ref 0
let stat_fns = ref 0
let stat_nodes = ref 0
let stat_opaque = ref 0

let stats () =
  [
    ("programs", !stat_programs);
    ("functions", !stat_fns);
    ("nodes", !stat_nodes);
    ("opaque-nodes", !stat_opaque);
  ]

let err code fmt = Xq_error.raise_error code fmt
let type_err fmt = err Xq_error.type_error_code fmt

(* ------------------------------------------------------------------ *)
(* interpreter bridges                                                 *)

type scope = (Qname.t * C.slot) list (* innermost first *)

(* Reconstruct a dynamic context whose locals are the frame's live ref
   cells, for handing an original AST back to the interpreter. Binding
   outermost-first lets inner bindings shadow, like lexical lookup. *)
let rebind_of (scope : scope) =
  let pairs = Array.of_list (List.rev scope) in
  fun env ->
    Array.fold_left
      (fun c (qn, s) -> D.bind_ref c qn env.frame.(s))
      env.ctx pairs

(* The eval_seq forms that pull through counting cursors; EBV contexts
   delegate exactly these so xdm.seq.pulls matches the interpreter. *)
let streams_natively (e : Ast.expr) =
  (not (Ast.is_updating e))
  &&
  match e with
  | Ast.E_sequence _ | Ast.E_range _ | Ast.E_if _ | Ast.E_step _
  | Ast.E_filter _ ->
      true
  | Ast.E_path (e1, Ast.E_step (axis, _, _)) -> (
      match Focus_analysis.seq_class e1 with
      | `One -> Focus_analysis.forward_ordered axis
      | `Sorted -> (
          match axis with Ast.Self | Ast.Attribute_axis -> true | _ -> false)
      | `Unknown -> false)
  | Ast.E_flwor { order = []; _ } -> true
  | Ast.E_hash_join j -> j.Ast.jorder = []
  | _ -> false

let atomize_seq cur =
  Seq.concat_map (fun it -> List.to_seq (I.atomize [ it ])) (Xdm_seq.items cur)

let call_ctx (ctx : D.t) =
  {
    Call_ctx.context_item =
      (match ctx.D.focus with Some f -> Some f.D.item | None -> None);
    position = (match ctx.D.focus with Some f -> f.D.position | None -> 0);
    size = (match ctx.D.focus with Some f -> f.D.size | None -> 0);
    doc = ctx.D.host.D.doc;
    doc_available = ctx.D.host.D.doc_available;
    put = ctx.D.host.D.put;
    now = ctx.D.host.D.now;
    trace = Call_ctx.default.Call_ctx.trace;
  }

(* ------------------------------------------------------------------ *)
(* emission                                                            *)

type attr_piece = P_text of string | P_enclosed of (env -> I.sequence)

(* the bounds of a range, per the interpreter's E_range rule: an empty
   operand yields no range; a failing cast propagates *)
let range_bounds fa fb env =
  let endpoint (f : env -> I.sequence) =
    match I.opt_atomic (f env) with
    | None -> None
    | Some a -> (
        match Eval.protect (fun () -> A.cast ~target:A.T_integer a) with
        | A.Integer i -> Some i
        | _ -> None)
  in
  match (endpoint fa, endpoint fb) with
  | Some lo, Some hi -> Eval.range_of lo hi
  | _ -> None

let rec emit (scope : scope) (c : C.t) : env -> I.sequence =
  incr stat_nodes;
  match c.C.d with
  | C.C_atomic a ->
      let v = [ I.Atomic a ] in
      fun _ -> v
  | C.C_text_literal s -> fun _ -> [ I.Node (Dom.create_text s) ]
  | C.C_slot s -> fun env -> !(env.frame.(s))
  | C.C_free qn -> fun env -> D.lookup env.ctx qn
  | C.C_context_item -> fun env -> [ D.focus_item env.ctx ]
  | C.C_root -> (
      fun env ->
        match D.focus_item env.ctx with
        | I.Node n -> [ I.Node (Dom.root n) ]
        | I.Atomic _ -> type_err "the context item for '/' is not a node")
  | C.C_sequence cs ->
      let fs = List.map (emit scope) cs in
      fun env -> List.concat_map (fun f -> f env) fs
  | C.C_range (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        (match range_bounds fa fb env with
        | Some (lo, hi) ->
            List.init (hi - lo + 1) (fun i -> I.Atomic (A.Integer (lo + i)))
        | None -> [])
  | C.C_if (cond, t, f) ->
      let fc = emit_ebv scope cond
      and ft = emit scope t
      and ff = emit scope f in
      fun env -> if fc env then ft env else ff env
  | C.C_or (a, b) ->
      let fa = emit_ebv scope a and fb = emit_ebv scope b in
      fun env ->
        if fa env then [ I.Atomic (A.Boolean true) ]
        else [ I.Atomic (A.Boolean (fb env)) ]
  | C.C_and (a, b) ->
      let fa = emit_ebv scope a and fb = emit_ebv scope b in
      fun env ->
        if not (fa env) then [ I.Atomic (A.Boolean false) ]
        else [ I.Atomic (A.Boolean (fb env)) ]
  | C.C_value_comp (op, a, b) -> (
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let ra = fa env and rb = fb env in
        match (ra, rb) with
        | [ I.Atomic (A.Integer i) ], [ I.Atomic (A.Integer j) ] ->
            (* hot shape: integer operands need no promotion and no
               NaN guard (same result as {!Eval.value_compare_pair}) *)
            let r =
              match op with
              | Ast.Eq -> i = j
              | Ast.Ne -> i <> j
              | Ast.Lt -> i < j
              | Ast.Le -> i <= j
              | Ast.Gt -> i > j
              | Ast.Ge -> i >= j
            in
            [ I.Atomic (A.Boolean r) ]
        | _ -> (
            match (I.atomize ra, I.atomize rb) with
            | [], _ | _, [] -> []
            | [ x ], [ y ] ->
                [ I.Atomic (A.Boolean (Eval.value_compare_pair op x y)) ]
            | _ -> type_err "value comparison requires singleton operands"))
  | C.C_general_comp (op, a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let va = I.atomize (fa env) and vb = I.atomize (fb env) in
        let result =
          List.exists
            (fun x -> List.exists (fun y -> Eval.general_compare_pair op x y) vb)
            va
        in
        [ I.Atomic (A.Boolean result) ]
  | C.C_general_comp_stream (op, lhs_ast, b) ->
      let fb = emit scope b and rb = rebind_of scope in
      fun env ->
        if Eval.streaming_enabled () then begin
          let vb = I.atomize (fb env) in
          let result =
            Seq.exists
              (fun x ->
                List.exists (fun y -> Eval.general_compare_pair op x y) vb)
              (atomize_seq (Eval.eval_seq (rb env) lhs_ast))
          in
          [ I.Atomic (A.Boolean result) ]
        end
        else
          let va = I.atomize (Eval.eval (rb env) lhs_ast)
          and vb = I.atomize (fb env) in
          let result =
            List.exists
              (fun x ->
                List.exists (fun y -> Eval.general_compare_pair op x y) vb)
              va
          in
          [ I.Atomic (A.Boolean result) ]
  | C.C_node_comp (op, a, b) -> (
      let fa = emit scope a and fb = emit scope b in
      fun env ->
        let na = fa env and nb = fb env in
        match (na, nb) with
        | [], _ | _, [] -> []
        | [ I.Node x ], [ I.Node y ] ->
            let r =
              match op with
              | Ast.Is -> Dom.equal x y
              | Ast.Precedes -> Dom.compare_order x y < 0
              | Ast.Follows -> Dom.compare_order x y > 0
            in
            [ I.Atomic (A.Boolean r) ]
        | _ -> type_err "node comparison requires single nodes")
  | C.C_arith (op, a, b) -> (
      let fa = emit scope a and fb = emit scope b in
      let f =
        match op with
        | Ast.Add -> A.add
        | Ast.Sub -> A.subtract
        | Ast.Mul -> A.multiply
        | Ast.Div -> A.divide
        | Ast.Idiv -> A.integer_divide
        | Ast.Mod -> A.modulo
      in
      fun env ->
        let ra = fa env and rb = fb env in
        match (ra, rb) with
        | [ I.Atomic (A.Integer i as x) ], [ I.Atomic (A.Integer j as y) ]
          -> (
            (* hot shape: integer-integer arithmetic is a direct int
               op ({!Xdm_atomic.numeric_op} with an identity
               promotion) behind the same allocation-free overflow
               tests; division, the by-zero cases and overflows keep
               the generic path for its error mapping *)
            match op with
            | Ast.Add when not (A.add_overflows i j (i + j)) -> [ I.Atomic (A.Integer (i + j)) ]
            | Ast.Sub when not (A.sub_overflows i j (i - j)) -> [ I.Atomic (A.Integer (i - j)) ]
            | Ast.Mul when not (A.mul_overflows i j (i * j)) -> [ I.Atomic (A.Integer (i * j)) ]
            | Ast.Mod when j <> 0 -> [ I.Atomic (A.Integer (i mod j)) ]
            | Ast.Idiv when j <> 0 && not (i = min_int && j = -1) ->
                [ I.Atomic (A.Integer (i / j)) ]
            | _ -> [ I.Atomic (Eval.protect (fun () -> f x y)) ])
        | _ -> (
            match (I.atomize ra, I.atomize rb) with
            | [], _ | _, [] -> []
            | [ x ], [ y ] -> [ I.Atomic (Eval.protect (fun () -> f x y)) ]
            | _ -> type_err "arithmetic requires singleton operands"))
  | C.C_unary_minus a -> (
      let fa = emit scope a in
      fun env ->
        match I.atomize (fa env) with
        | [] -> []
        | [ x ] -> [ I.Atomic (Eval.protect (fun () -> A.negate x)) ]
        | _ -> type_err "unary minus requires a singleton operand")
  | C.C_union (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env -> Eval.protect (fun () -> I.union (fa env) (fb env))
  | C.C_intersect (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env -> Eval.protect (fun () -> I.intersect (fa env) (fb env))
  | C.C_except (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      fun env -> Eval.protect (fun () -> I.except (fa env) (fb env))
  | C.C_instance_of (a, st) ->
      let fa = emit scope a in
      fun env -> [ I.Atomic (A.Boolean (Seq_type.matches st (fa env))) ]
  | C.C_treat_as (a, st) ->
      let fa = emit scope a in
      fun env ->
        let v = fa env in
        if Seq_type.matches st v then v
        else
          err "XPDY0050" "treat as %s failed on a sequence of %d item(s)"
            (Seq_type.to_string st) (List.length v)
  | C.C_castable_as (a, ty, optional) -> (
      let fa = emit scope a in
      fun env ->
        match I.atomize (fa env) with
        | [] -> [ I.Atomic (A.Boolean optional) ]
        | [ x ] -> [ I.Atomic (A.Boolean (A.castable ~target:ty x)) ]
        | _ -> [ I.Atomic (A.Boolean false) ])
  | C.C_cast_as (a, ty, optional) -> (
      let fa = emit scope a in
      fun env ->
        match I.atomize (fa env) with
        | [] ->
            if optional then []
            else type_err "cast of an empty sequence to a non-optional type"
        | [ x ] -> [ I.Atomic (Eval.protect (fun () -> A.cast ~target:ty x)) ]
        | _ -> type_err "cast requires a singleton operand")
  | C.C_step (axis, test, preds, ast_preds) ->
      let pfs = List.map (emit scope) preds in
      let scan env =
        match D.focus_item env.ctx with
        | I.Atomic _ -> type_err "axis step applied to an atomic context item"
        | I.Node n -> (
            match Eval.value_index_step axis test ast_preds n with
            | Some (nodes, _) ->
                apply_preds env
                  (List.map (fun m -> I.Node m) nodes)
                  (List.tl pfs)
            | None ->
                apply_preds env
                  (List.map (fun m -> I.Node m) (Eval.step_nodes axis test n))
                  pfs)
      in
      with_bounded_take scope c.C.ast scan
  | C.C_filter (e, preds) ->
      let fe = emit scope e in
      let pfs = List.map (emit scope) preds in
      with_bounded_take scope c.C.ast (fun env -> apply_preds env (fe env) pfs)
  | C.C_path (a, b) ->
      let fa = emit scope a and fb = emit scope b in
      let eager_from env lhs =
        let n = List.length lhs in
        let results =
          List.concat
            (List.mapi
               (fun i item ->
                 match item with
                 | I.Node _ ->
                     fb
                       {
                         env with
                         ctx = D.with_focus env.ctx item ~position:(i + 1) ~size:n;
                       }
                 | I.Atomic _ -> type_err "path step applied to an atomic value")
               lhs)
        in
        if results = [] then []
        else if I.all_nodes results then
          Eval.protect (fun () -> I.document_order results)
        else if List.exists I.is_node results then
          err "XPTY0018" "path result mixes nodes and atomic values"
        else results
      in
      let eager =
        (* hot shape: a predicate-free forward step over a singleton
           lhs emits document order directly (the invariant the
           streaming pipeline already relies on, {!Focus_analysis}),
           so the focus rebuild and the doc-order merge both drop out *)
        match b.C.d with
        | C.C_step (axis, test, [], [])
          when Focus_analysis.forward_ordered axis -> (
            fun env ->
              match fa env with
              | [] -> []
              | [ I.Node n ] ->
                  List.map (fun m -> I.Node m) (Eval.step_nodes axis test n)
              | [ I.Atomic _ ] ->
                  type_err "path step applied to an atomic value"
              | lhs -> eager_from env lhs)
        | _ -> fun env -> eager_from env (fa env)
      in
      (* the interpreter's bounded-take clause additionally requires a
         provably ordered chain for paths *)
      if
        Focus_analysis.has_bounded_take c.C.ast
        && Focus_analysis.seq_class c.C.ast <> `Unknown
      then
        let rb = rebind_of scope in
        fun env ->
          if Eval.streaming_enabled () then
            Xdm_seq.to_list (Eval.eval_seq (rb env) c.C.ast)
          else eager env
      else eager
  | C.C_for { slot; pos_slot; var; pos_var; var_type; source; body } -> (
      let scope' = (var, slot) :: scope in
      let scope' =
        match (pos_var, pos_slot) with
        | Some pv, Some ps -> (pv, ps) :: scope'
        | _ -> scope'
      in
      let bodyf = emit scope' body in
      let what = "$" ^ Qname.to_string var in
      let coerce iv =
        match var_type with
        | Some st -> Seq_type.coerce ~what st iv
        | None -> iv
      in
      (* accumulate body results item by item instead of building a
         list of lists and concatenating: same order, one allocation
         less per iteration *)
      let push acc env =
        match bodyf env with
        | [] -> ()
        | [ x ] -> acc := x :: !acc
        | xs -> List.iter (fun x -> acc := x :: !acc) xs
      in
      let bind_at env i item =
        env.frame.(slot) <- ref (coerce [ item ]);
        match pos_slot with
        | Some ps -> env.frame.(ps) <- ref [ I.Atomic (A.Integer i) ]
        | None -> ()
      in
      match source.C.d with
      | C.C_range (ra, rb) ->
          (* hot shape: iterate the range without materialising it *)
          let fa = emit scope ra and fb = emit scope rb in
          fun env ->
            (match range_bounds fa fb env with
            | Some (lo, hi) ->
                let acc = ref [] in
                for i = lo to hi do
                  bind_at env (i - lo + 1) (I.Atomic (A.Integer i));
                  push acc env
                done;
                List.rev !acc
            | None -> [])
      | _ ->
          let src = emit scope source in
          fun env ->
            let items = src env in
            let acc = ref [] in
            List.iteri (fun i item ->
                bind_at env (i + 1) item;
                push acc env)
              items;
            List.rev !acc)
  | C.C_let { slot; var; var_type; value; body } ->
      let fv = emit scope value in
      let bodyf = emit ((var, slot) :: scope) body in
      let what = "$" ^ Qname.to_string var in
      fun env ->
        let v = fv env in
        let v =
          match var_type with Some st -> Seq_type.coerce ~what st v | None -> v
        in
        env.frame.(slot) <- ref v;
        bodyf env
  | C.C_where (cond, body) ->
      let fc = emit_ebv scope cond and bodyf = emit scope body in
      fun env -> if fc env then bodyf env else []
  | C.C_cast_call (ty, a) -> (
      let fa = emit scope a in
      fun env ->
        let v = fa env in
        if !Obs.Metrics.enabled then begin
          Obs.Metrics.incr "eval.calls";
          Obs.Metrics.incr "eval.calls.constructor"
        end;
        match v with
        (* hot shape: xs:integer on an integer is the identity cast *)
        | [ I.Atomic (A.Integer _) ] when ty = A.T_integer -> v
        | _ -> (
            match I.atomize v with
            | [] -> []
            | [ x ] ->
                [ I.Atomic (Eval.protect (fun () -> A.cast ~target:ty x)) ]
            | _ -> type_err "constructor function requires a singleton"))
  | C.C_builtin_call (qn, impl, args) ->
      let fs = List.map (emit scope) args in
      (* this dispatch bypasses Eval.call_function, so the recorded-run
         impurity check must be replicated here; the test is hoisted to
         emission time *)
      let impure = Reactive.impure_builtin_sym qn.Qname.lsym in
      fun env ->
        let vs = List.map (fun f -> f env) fs in
        if !Obs.Metrics.enabled then begin
          Obs.Metrics.incr "eval.calls";
          Obs.Metrics.incr "eval.calls.builtin"
        end;
        if impure then Footprint.poison ();
        Eval.protect (fun () -> impl (call_ctx env.ctx) vs)
  | C.C_call (qn, args) ->
      let fs = List.map (emit scope) args in
      fun env ->
        let vs = List.map (fun f -> f env) fs in
        Eval.call_function env.ctx qn vs
  | C.C_direct_element { name; attributes; children } ->
      let attributes =
        List.map
          (fun (an, parts) ->
            ( an,
              List.map
                (function
                  | C.CA_text t -> P_text t
                  | C.CA_enclosed e -> P_enclosed (emit scope e))
                parts ))
          attributes
      in
      let children = List.map (emit scope) children in
      fun env ->
        (* the element, then its attributes, then its content: ids in
           pre-order *)
        let el = Dom.create_element name in
        let attrs =
          List.map
            (fun (an, parts) ->
              Dom.create_attribute an
                (String.concat ""
                   (List.map
                      (function
                        | P_text t -> t
                        | P_enclosed f -> I.sequence_string (f env))
                      parts)))
            attributes
        in
        Eval.construct el ~attrs (List.concat_map (fun f -> f env) children)
  | C.C_computed_element (name_c, content_c) ->
      let fn = emit scope name_c and fc = emit scope content_c in
      fun env ->
        let name = Eval.qname_of_value env.ctx (I.singleton_atomic (fn env)) in
        let el = Dom.create_element name in
        Eval.construct el ~attrs:[] (fc env)
  | C.C_computed_attribute (name_c, content_c) ->
      let fn = emit scope name_c and fc = emit scope content_c in
      fun env ->
        let name = Eval.qname_of_value env.ctx (I.singleton_atomic (fn env)) in
        let value = I.sequence_string (fc env) in
        [ I.Node (Dom.create_attribute name value) ]
  | C.C_computed_text a ->
      let fa = emit scope a in
      fun env -> [ I.Node (Dom.create_text (I.sequence_string (fa env))) ]
  | C.C_computed_comment a ->
      let fa = emit scope a in
      fun env -> [ I.Node (Dom.create_comment (I.sequence_string (fa env))) ]
  | C.C_computed_pi (name_c, content_c) ->
      let fn = emit scope name_c and fc = emit scope content_c in
      fun env ->
        let target = I.sequence_string (fn env) in
        [ I.Node (Dom.create_pi ~target (I.sequence_string (fc env))) ]
  | C.C_computed_document a ->
      let fa = emit scope a in
      fun env ->
        let doc = Dom.create_document () in
        Eval.construct doc ~attrs:[] (fa env)
  | C.C_opaque ast ->
      incr stat_opaque;
      if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.compile.opaque";
      let rb = rebind_of scope in
      fun env -> Eval.eval (rb env) ast

(* effective boolean value of a compiled subexpression: natively
   streaming forms delegate to the interpreter's lazy cursors (same
   early exit, same pull counters); everything else uses the compiled
   closure — eval_seq would just materialise it anyway *)
and emit_ebv scope (c : C.t) : env -> bool =
  let f = emit scope c in
  if streams_natively c.C.ast then begin
    let rb = rebind_of scope in
    let ast = c.C.ast in
    fun env ->
      if Eval.streaming_enabled () then
        Xdm_seq.effective_boolean (Eval.eval_seq (rb env) ast)
      else I.effective_boolean (f env)
  end
  else fun env -> I.effective_boolean (f env)

(* the interpreter's top-level bounded-positional-take clause: when
   streaming, pull through eval_seq and stop at the bound *)
and with_bounded_take scope ast eager =
  if Focus_analysis.has_bounded_take ast && not (Ast.is_updating ast) then begin
    let rb = rebind_of scope in
    fun env ->
      if Eval.streaming_enabled () then
        Xdm_seq.to_list (Eval.eval_seq (rb env) ast)
      else eager env
  end
  else eager

(* predicate chains, replicating {!Eval.apply_predicates}: per stage
   the size is the stage input length, a numeric predicate value keeps
   the item at that position *)
and apply_preds env items pfs =
  List.fold_left
    (fun items pf ->
      let n = List.length items in
      List.filteri
        (fun i item ->
          let pos = i + 1 in
          let fenv =
            { env with ctx = D.with_focus env.ctx item ~position:pos ~size:n }
          in
          match pf fenv with
          | [ I.Atomic a ] when A.is_numeric a ->
              Eval.protect (fun () -> A.compare_value a (A.Integer pos) = 0)
          | v -> I.effective_boolean v)
        items)
    items pfs

(* ------------------------------------------------------------------ *)
(* programs                                                            *)

let compile_expr static ?(params = []) e =
  let core, size = Core_ir.lower static ~params e in
  if Core_ir.is_opaque_root core then None
  else
    let scope = List.mapi (fun i qn -> (qn, i)) params in
    let f = emit (List.rev scope) core in
    Some (f, size)

let compile_fn static (decl : Ast.function_decl) :
    ((int * int * int) * fn_impl) option =
  let plain_body =
    match (decl.Ast.kind, decl.Ast.body) with
    | Ast.F_sequential, Some (Ast.E_block _) -> None
    | _, Some (Ast.E_block [ Ast.S_expr e ]) -> Some e
    | _, Some (Ast.E_block _) -> None
    | _, body -> body
  in
  match plain_body with
  | None -> None
  | Some body -> (
      let pnames = List.map fst decl.Ast.params in
      match compile_expr static ~params:pnames body with
      | None -> None
      | Some (bodyf, size) ->
          let params = Array.of_list decl.Ast.params in
          let name = Qname.to_string decl.Ast.fname in
          let key = D.fn_key decl.Ast.fname ~arity:(Array.length params) in
          let impl ctx args =
            if ctx.D.depth > Eval.max_depth then
              err "XQDY0054" "maximum recursion depth exceeded in %s" name;
            let fctx = D.function_scope ctx in
            let frame = Array.init size (fun _ -> ref []) in
            List.iteri
              (fun i arg ->
                let pname, ptype = params.(i) in
                let arg =
                  match ptype with
                  | Some st ->
                      Seq_type.coerce ~what:("$" ^ Qname.to_string pname) st arg
                  | None -> arg
                in
                frame.(i) <- ref arg)
              args;
            let result =
              try bodyf { ctx = fctx; frame } with
              | Eval.Exit_with v -> v
              | Eval.Break_loop | Eval.Continue_loop ->
                  err "XSST0010" "break/continue outside of a while loop"
            in
            match decl.Ast.return_type with
            | Some st ->
                Seq_type.coerce
                  ~what:(Qname.to_string decl.Ast.fname ^ " result")
                  st result
            | None -> result
          in
          Some (key, impl))

let compile_prog static (prog : Ast.prog) : prog_code =
  incr stat_programs;
  if !Obs.Metrics.enabled then Obs.Metrics.incr "xquery.compile.programs";
  let fns =
    List.filter_map
      (function
        | Ast.P_function f -> (
            match compile_fn static f with
            | Some kf ->
                incr stat_fns;
                if !Obs.Metrics.enabled then
                  Obs.Metrics.incr "xquery.compile.fns";
                Some kf
            | None -> None)
        | _ -> None)
      prog.Ast.prolog
  in
  let body =
    match prog.Ast.body with
    | None -> None
    | Some e -> (
        match compile_expr static e with
        | None -> None
        | Some (f, size) ->
            Some
              (fun ctx ->
                f { ctx; frame = Array.init size (fun _ -> ref []) }))
  in
  { body; fns }
