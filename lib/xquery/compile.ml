(* The closure compiler, the one evaluator production runs: one OCaml
   closure per {!Core_ir} node, composed bottom-up at compile time, so
   a run makes direct calls over a frame array (slots resolved by the
   lowering) instead of dispatching on the AST; hot shapes (name-test
   steps, predicate chains, integer arithmetic and comparison, FLWOR
   loops) are specialized. Every form compiles, and every closure does
   what the {!Eval.eval} arm of its form does — same evaluation order,
   errors and metrics — by calling the same {!Eval} helpers.

   Streaming is cursor emission: [emit_seq] produces {!Xdm_seq} cursors
   for the forms that can yield items lazily, and only the early-exit
   consumers pull them — effective-boolean contexts, bounded positional
   takes, fn:exists/empty/head/boolean/not/subsequence, count(e) against
   a literal, existential comparisons, quantifiers and the join's probe
   side. An updating expression never streams, so no update is skipped.

   A frame holds a ref cell per slot: a binding stores a fresh cell,
   scripting assignment writes the slot's cell, and a frame snapshot
   (order-by tuples, deferred [behind] computations) shares the cells
   it copies. *)

open Xmlb
module A = Xdm_atomic
module I = Xdm_item
module D = Dynamic_context
module C = Core_ir

type env = { ctx : D.t; frame : I.sequence ref array }
type fn_impl = D.t -> I.sequence list -> I.sequence

type prog_code = {
  body : (D.t -> I.sequence) option;
  fns : ((string option * string * int) * fn_impl) list;
  globals : (Qname.t * Ast.seq_type option * (D.t -> I.sequence) option) list;
}

let stat_programs = Obs.Metrics.counter "xquery.compile.programs"
let stat_fns = Obs.Metrics.counter "xquery.compile.fns"
let stat_nodes = Obs.Metrics.counter "xquery.compile.nodes"

let stats () =
  [
    ("programs", Obs.Metrics.value stat_programs);
    ("functions", Obs.Metrics.value stat_fns);
    ("nodes", Obs.Metrics.value stat_nodes);
    (* every form compiles; the key stays for readers of the old set *)
    ("opaque-nodes", 0);
  ]

let err code fmt = Xq_error.raise_error code fmt
let type_err fmt = err Xq_error.type_error_code fmt

(* ------------------------------------------------------------------ *)
(* emission helpers                                                    *)

let range_bounds fa fb env = Eval.range_bounds (fun () -> fa env) (fun () -> fb env)
let thunk f env () = f env

let atomize_seq cur =
  Seq.concat_map (fun it -> List.to_seq (I.atomize [ it ])) (Xdm_seq.items cur)

let int_compare (op : Ast.value_comp) m k =
  match op with
  | Ast.Eq -> m = k
  | Ast.Ne -> m <> k
  | Ast.Lt -> m < k
  | Ast.Le -> m <= k
  | Ast.Gt -> m > k
  | Ast.Ge -> m >= k

let set env slot v = env.frame.(slot) <- ref v

(* [fs] applied to [env], left to right: the arguments, attributes and
   parts of one evaluation *)
let rec map_env env = function
  | [] -> []
  | f :: rest ->
      let v = f env in
      v :: map_env env rest

(* binds a for variable (and its position) to one item *)
let for_binder slot pos_slot var var_type =
  match (var_type, pos_slot) with
  | None, None -> fun env _ item -> set env slot [ item ]
  | _ ->
      let coerce = Eval.coerce_var var var_type in
      fun env i item ->
        set env slot (coerce [ item ]);
        Option.iter (fun ps -> set env ps [ I.Atomic (A.Integer i) ]) pos_slot

let let_binder slot var var_type fv =
  let coerce = Eval.coerce_var var var_type in
  fun env -> set env slot (coerce (fv env))

let apply_preds env items pfs =
  Eval.filter_items (fun ctx pf -> pf { env with ctx }) env.ctx items pfs

(* lazy axis walks: the downward axes are incremental; the others are
   list-producing anyway, materialised at the first pull *)
let rec subtree_seq n () = Seq.Cons (n, descendants_seq n)

and descendants_seq n () =
  Seq.concat_map subtree_seq (List.to_seq (Dom.children n)) ()

let axis_seq (axis : Ast.axis) node : Dom.node Seq.t =
  match axis with
  | Ast.Child -> List.to_seq (Dom.children node)
  | Ast.Descendant -> descendants_seq node
  | Ast.Descendant_or_self -> subtree_seq node
  | Ast.Attribute_axis -> List.to_seq (Dom.attributes node)
  | Ast.Self -> Seq.return node
  | _ -> fun () -> List.to_seq (Eval.axis_nodes axis node) ()

(* the nodes of one axis step as a counted cursor, recording the same
   metrics and footprints as {!Eval.step_nodes}; a descendant name
   test refines the local-name index bucket (already in document
   order) lazily *)
let scan_seq axis (test : Ast.node_test) n =
  let nodes =
    match (axis, test) with
    | (Ast.Descendant | Ast.Descendant_or_self), (Ast.Local_wildcard _ | Ast.Name_test _)
      when Ablation.current.acceleration ->
        fun () ->
          Eval.count_step axis;
          Obs.Metrics.incr Eval.desc_index_steps;
          let bucket =
            match test with
            | Ast.Name_test { Qname.local; _ } | Ast.Local_wildcard local ->
                Dom.get_elements_by_local_name n local
            | _ -> assert false (* excluded by the outer pattern *)
          in
          Seq.filter
            (fun m ->
              Eval.node_test_matches ~axis test m
              && not (axis = Ast.Descendant && Dom.equal m n))
            (List.to_seq bucket) ()
    | _ ->
        Eval.count_step axis;
        if Footprint.recording () then Eval.record_axis_scope axis n;
        Seq.filter (Eval.node_test_matches ~axis test) (axis_seq axis n)
  in
  Xdm_seq.of_node_seq ~sorted:(Focus_analysis.forward_ordered axis) nodes

(* a path whose final step, expanded from the lhs, provably emits
   distinct nodes in document order *)
let ordered_path (lhs : C.t) axis =
  match Focus_analysis.seq_class lhs.C.ast with
  | `One -> Focus_analysis.forward_ordered axis
  | `Sorted -> ( match axis with Ast.Self | Ast.Attribute_axis -> true | _ -> false)
  | `Unknown -> false

(* does [emit_seq] produce [c]'s items lazily? *)
let streams (c : C.t) =
  (not c.C.upd)
  &&
  match c.C.d with
  | C.C_sequence _ | C.C_range _ | C.C_if _ | C.C_step _ | C.C_filter _ -> true
  | C.C_flwor { keys; _ } -> keys = []
  | C.C_path (a, { C.d = C.C_step (axis, _, _, _); _ }) -> ordered_path a axis
  | C.C_hash_join j -> j.C.jkeys = []
  | _ -> false

(* ------------------------------------------------------------------ *)
(* emission                                                            *)

let rec emit (c : C.t) : env -> I.sequence =
  Obs.Metrics.incr stat_nodes;
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
      let fs = List.map emit cs in
      fun env -> List.concat_map (fun f -> f env) fs
  | C.C_range (a, b) ->
      let fa = emit a and fb = emit b in
      fun env -> Eval.range_items (range_bounds fa fb env)
  | C.C_if (cond, t, f) ->
      let fc = emit_ebv cond
      and ft = emit t
      and ff = emit f in
      fun env -> if fc env then ft env else ff env
  | C.C_or (a, b) ->
      let fa = emit_ebv a and fb = emit_ebv b in
      fun env ->
        if fa env then [ I.Atomic (A.Boolean true) ]
        else [ I.Atomic (A.Boolean (fb env)) ]
  | C.C_and (a, b) ->
      let fa = emit_ebv a and fb = emit_ebv b in
      fun env ->
        if not (fa env) then [ I.Atomic (A.Boolean false) ]
        else [ I.Atomic (A.Boolean (fb env)) ]
  | C.C_value_comp (op, a, b) -> (
      let fa = emit a and fb = emit b in
      fun env ->
        let ra = fa env in
        match (ra, fb env) with
        | [ I.Atomic (A.Integer i) ], [ I.Atomic (A.Integer j) ] ->
            (* hot shape: integer operands need no promotion and no
               NaN guard (same result as {!Eval.value_comp}) *)
            [ I.Atomic (A.Boolean (int_compare op i j)) ]
        | _, rb -> Eval.value_comp op ra rb)
  | C.C_general_comp (op, a, b) when Focus_analysis.worth_streaming a.C.ast ->
      (* existential semantics: materialise the (usually small) rhs,
         stream the lhs and stop at the first matching pair *)
      let sa = emit_seq a and fb = emit b in
      fun env ->
        let vb = I.atomize (fb env) in
        let result =
          Seq.exists
            (fun x -> List.exists (fun y -> Eval.general_compare_pair op x y) vb)
            (atomize_seq (sa env))
        in
        [ I.Atomic (A.Boolean result) ]
  | C.C_general_comp (op, a, b) -> binary (Eval.general_comp op) a b
  | C.C_count_comp (op, arg, k) ->
      (* count(e) op k with m = min(count(e), k+1) pulled items:
         m op k <=> count(e) op k for every comparison operator *)
      let s = emit_seq arg in
      let bound = if k >= max_int - 1 then max_int else max 0 (k + 1) in
      fun env ->
        let m = Seq.length (Seq.take bound (Xdm_seq.items (s env))) in
        [ I.Atomic (A.Boolean (int_compare op m k)) ]
  | C.C_node_comp (op, a, b) -> binary (Eval.node_comp op) a b
  | C.C_arith (op, a, b) -> (
      (* hot shape: integer-integer arithmetic is a direct int op
         behind the same allocation-free overflow tests; division, the
         by-zero cases and overflows take the generic path for its
         error mapping *)
      let slow () = raise_notrace Exit in
      let int_op : int -> int -> int =
        match op with
        | Ast.Add ->
            fun i j ->
              let r = i + j in
              if A.add_overflows i j r then slow () else r
        | Ast.Sub ->
            fun i j ->
              let r = i - j in
              if A.sub_overflows i j r then slow () else r
        | Ast.Mul ->
            fun i j ->
              let r = i * j in
              if A.mul_overflows i j r then slow () else r
        | Ast.Mod -> fun i j -> if j = 0 then slow () else i mod j
        | Ast.Idiv -> fun i j -> if j = 0 || (i = min_int && j = -1) then slow () else i / j
        | Ast.Div -> fun _ _ -> slow ()
      in
      let fa = emit a and fb = emit b in
      fun env ->
        let ra = fa env in
        let rb = fb env in
        match (ra, rb) with
        | [ I.Atomic (A.Integer i) ], [ I.Atomic (A.Integer j) ] -> (
            match int_op i j with
            | r -> [ I.Atomic (A.Integer r) ]
            | exception Exit -> Eval.arith op ra rb)
        | _ -> Eval.arith op ra rb)
  | C.C_unary_minus a ->
      let fa = emit a in
      fun env -> Eval.negate (fa env)
  | C.C_union (a, b) -> binary I.union a b
  | C.C_intersect (a, b) -> binary I.intersect a b
  | C.C_except (a, b) -> binary I.except a b
  | C.C_instance_of (a, st) ->
      let fa = emit a in
      fun env -> [ I.Atomic (A.Boolean (Seq_type.matches st (fa env))) ]
  | C.C_treat_as (a, st) ->
      let fa = emit a in
      fun env -> Eval.treat st (fa env)
  | C.C_castable_as (a, ty, optional) ->
      let fa = emit a in
      fun env -> Eval.castable ty optional (fa env)
  | C.C_cast_as (a, ty, optional) ->
      let fa = emit a in
      fun env -> Eval.cast ty optional (fa env)
  | C.C_step (axis, test, preds, ast_preds) ->
      with_bounded_take c @@ fun () ->
      let pfs = List.map emit preds in
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
      scan
  | C.C_filter (e, preds) ->
      with_bounded_take c @@ fun () ->
      let fe = emit e in
      let pfs = List.map emit preds in
      fun env -> apply_preds env (fe env) pfs
  | C.C_path (a, b) ->
      let eager () =
        let fa = emit a in
        match b.C.d with
        (* a step without predicates reads no focus *)
        | C.C_step (axis, test, [], []) -> fun env -> Eval.path_step axis test (fa env)
        | _ ->
            let fb = emit b in
            fun env ->
              Eval.path_map
                (fun item position size ->
                  fb { env with ctx = D.with_focus env.ctx item ~position ~size })
                (fa env)
      in
      (* a bounded take at the end of a path streams only when the
         chain is provably ordered: then no re-sort is skipped *)
      if Focus_analysis.seq_class c.C.ast <> `Unknown then with_bounded_take c eager
      else eager ()
  | C.C_flwor { clauses; where; keys = []; return } ->
      let fret = emit return in
      let leaf =
        match Option.map emit_ebv where with
        | None -> fret
        | Some w -> fun env -> if w env then fret env else []
      in
      List.fold_right emit_clause clauses leaf
  | C.C_flwor { clauses; where; keys; return } ->
      (* tuples are frame snapshots *)
      let leaf =
        match Option.map emit_ebv where with
        | None -> fun env -> [ Array.copy env.frame ]
        | Some w -> fun env -> if w env then [ Array.copy env.frame ] else []
      in
      let tuples = List.fold_right emit_clause clauses leaf
      and ordered = emit_ordered keys return in
      fun env -> ordered env (tuples env)
  | C.C_cast_call (ty, a) -> (
      let fa = emit a in
      fun env ->
        let v = fa env in
        Eval.count_call Eval.constructor_calls;
        match v with
        (* hot shapes: xs:integer on an integer is the identity cast;
           a single item atomizes without a list *)
        | [ I.Atomic (A.Integer _) ] when ty = A.T_integer -> v
        | [ it ] -> [ I.Atomic (A.cast ~target:ty (I.item_atomic it)) ]
        | _ -> Eval.construct_atomic ty v)
  | C.C_builtin_call (qn, impl, args) -> (
      match early_exit_call qn args with
      | Some f -> f
      | None ->
          let fs = List.map emit args in
          (* this dispatch bypasses Eval.call_function, so the
             recorded-run impurity check must be replicated here; the
             test is hoisted to emission time *)
          let impure = Reactive.impure_builtin qn.Qname.local in
          fun env ->
            let vs = map_env env fs in
            Eval.count_call Eval.builtin_calls;
            if impure then Footprint.poison ();
            impl (Eval.call_ctx env.ctx) vs)
  | C.C_call (qn, args) ->
      let fs = List.map emit args in
      fun env -> Eval.call_function env.ctx qn (map_env env fs)
  | C.C_direct_element { name; attributes; children } ->
      let attributes =
        List.map
          (fun (an, parts) ->
            let value = attribute_value parts in
            fun env -> Dom.create_attribute an (value env))
          attributes
      in
      let children = List.map emit_part children in
      fun env ->
        (* the element, then its attributes, then its content *)
        let el = Dom.create_element name in
        let attrs = map_env env attributes in
        Eval.construct el ~attrs (map_env env children)
  | C.C_computed_element (name_c, content_c) ->
      let fn = emit name_c and fc = emit_part content_c in
      fun env ->
        let name = Eval.qname_of_value env.ctx (I.singleton_atomic (fn env)) in
        let el = Dom.create_element name in
        Eval.construct el ~attrs:[] [ fc env ]
  | C.C_computed_attribute (name_c, content_c) ->
      let fn = emit name_c and fc = emit content_c in
      fun env ->
        let name = Eval.qname_of_value env.ctx (I.singleton_atomic (fn env)) in
        let value = I.sequence_string (fc env) in
        [ I.Node (Dom.create_attribute name value) ]
  | C.C_computed_text a ->
      let fa = emit a in
      fun env -> [ I.Node (Dom.create_text (I.sequence_string (fa env))) ]
  | C.C_computed_comment a ->
      let fa = emit a in
      fun env -> [ I.Node (Dom.create_comment (I.sequence_string (fa env))) ]
  | C.C_computed_pi (name_c, content_c) ->
      let fn = emit name_c and fc = emit content_c in
      fun env ->
        let target = I.sequence_string (fn env) in
        [ I.Node (Dom.create_pi ~target (I.sequence_string (fc env))) ]
  | C.C_computed_document a ->
      let fa = emit_part a in
      fun env ->
        let doc = Dom.create_document () in
        Eval.construct doc ~attrs:[] [ fa env ]
  | C.C_hash_join j ->
      (* every tuple (a frame snapshot) passes the where clause before
         any is returned *)
      let pairs = emit_join_pairs j and ordered = emit_ordered j.C.jkeys j.C.jreturn in
      fun env ->
        ordered env
          (List.of_seq
             (Seq.map
                (fun (l, r) ->
                  set env j.C.left_slot [ l ];
                  set env j.C.right_slot [ r ];
                  Array.copy env.frame)
                (pairs env)))
  | C.C_quantified (quant, clauses, body) ->
      (* the binding sources are pulled lazily: some stops at the
         first witness, every at the first counterexample *)
      let fb = emit_ebv body in
      let witness = I.Atomic (A.Boolean true) in
      let leaf =
        match quant with
        | Ast.Some_quant -> fun env -> if fb env then Xdm_seq.singleton witness else Xdm_seq.empty
        | Ast.Every_quant -> fun env -> if fb env then Xdm_seq.empty else Xdm_seq.singleton witness
      in
      let found = List.fold_right seq_clause clauses leaf in
      fun env ->
        let empty = Xdm_seq.is_empty (found env) in
        [ I.Atomic (A.Boolean (if quant = Ast.Some_quant then not empty else empty)) ]
  | C.C_typeswitch (op, cases, (dslot, dbody)) ->
      let fop = emit op in
      let cases = List.map (fun (slot, st, body) -> (st, (slot, emit body))) cases in
      let default = (dslot, emit dbody) in
      fun env ->
        let v = fop env in
        let slot, f = Eval.select_case cases default v in
        Option.iter (fun s -> set env s v) slot;
        f env
  | C.C_ftcontains (a, sel) ->
      let rec ft = function
        | C.F_words (w, stemming) ->
            let fw = emit w in
            fun env hay -> Eval.ft_words ~stemming hay (fw env)
        | C.F_and (x, y) ->
            let fx = ft x and fy = ft y in
            fun env hay -> fx env hay && fy env hay
        | C.F_or (x, y) ->
            let fx = ft x and fy = ft y in
            fun env hay -> fx env hay || fy env hay
        | C.F_not x ->
            let fx = ft x in
            fun env hay -> not (fx env hay)
      in
      let fa = emit a and fs = ft sel in
      fun env ->
        let hay = Eval.ft_haystack (fa env) in
        [ I.Atomic (A.Boolean (fs env hay)) ]
  (* ---- updates ---- *)
  | C.C_insert (pos, source, target) ->
      let fs = emit source and ft = emit target and fresh = C.fresh source in
      fun env ->
        Eval.insert env.ctx.D.pul pos ~fresh ~source:(thunk fs env) ~target:(thunk ft env)
  | C.C_delete a ->
      let fa = emit a in
      fun env -> Eval.delete env.ctx.D.pul (fa env)
  | C.C_replace (value_of, target, source) ->
      let ft = emit target and fs = emit source and fresh = C.fresh source in
      fun env ->
        Eval.replace env.ctx.D.pul ~value_of ~fresh ~target:(thunk ft env)
          ~source:(thunk fs env)
  | C.C_rename (target, name) ->
      let ft = emit target and fn = emit name in
      fun env -> Eval.rename env.ctx env.ctx.D.pul ~target:(thunk ft env) ~name:(thunk fn env)
  | C.C_transform (copies, modify, return) ->
      let fcopies = List.map (fun (slot, src) -> (slot, emit src)) copies in
      let fm = emit modify and fr = emit return in
      fun env ->
        let nodes = List.map (fun (slot, f) -> (slot, Eval.copy_source (f env))) fcopies in
        List.iter (fun (slot, n) -> set env slot [ I.Node n ]) nodes;
        let inner_pul = Pul.create () in
        ignore (fm { env with ctx = { env.ctx with D.pul = inner_pul } });
        (* XUDY0014: updates must stay within the copied trees *)
        Pul.apply inner_pul;
        fr env
  (* ---- scripting ---- *)
  | C.C_block stmts -> emit_block stmts
  (* ---- browser extensions ---- *)
  | C.C_event_attach (event, binding, target, listener) ->
      let fe = emit event and ft = emit target in
      fun env ->
        (* a [behind] computation may run later: it sees the bindings
           of now *)
        let later = { env with frame = Array.copy env.frame } in
        Eval.attach env.ctx binding listener ~event:(thunk fe env) ~target:(thunk ft later)
  | C.C_event_detach (event, target, listener) ->
      let fe = emit event and ft = emit target in
      fun env -> Eval.detach env.ctx listener ~event:(thunk fe env) ~target:(thunk ft env)
  | C.C_event_trigger (event, target) ->
      let fe = emit event and ft = emit target in
      fun env -> Eval.trigger env.ctx ~event:(thunk fe env) ~target:(thunk ft env)
  | C.C_set_style (property, target, value) ->
      let fp = emit property and ft = emit target and fv = emit value in
      fun env ->
        Eval.set_style env.ctx ~property:(thunk fp env) ~value:(thunk fv env)
          ~target:(thunk ft env)
  | C.C_get_style (property, target) ->
      let fp = emit property and ft = emit target in
      fun env -> Eval.get_style env.ctx ~property:(thunk fp env) ~target:(thunk ft env)

(* one content expression of a constructor as an {!Eval.part}: a text
   literal is its text, built once *)
and emit_part (c : C.t) : env -> Eval.part =
  match c.C.d with
  | C.C_text_literal s ->
      let p = Eval.Text s in
      fun _ -> p
  | _ ->
      let f = emit c in
      if C.fresh c then fun env -> Eval.Fresh (f env) else fun env -> Eval.Copied (f env)

(* an attribute's value: its text pieces and the string values of its
   enclosed expressions, joined; a value of one text piece is that text *)
and attribute_value parts : env -> string =
  let piece = function
    | C.CA_text t -> fun _ -> t
    | C.CA_enclosed e ->
        let f = emit e in
        fun env -> I.sequence_string (f env)
  in
  match parts with
  | [] -> fun _ -> ""
  | [ p ] -> piece p
  | _ ->
      let pieces = List.map piece parts in
      fun env -> String.concat "" (map_env env pieces)

(* the return of tuples (frame snapshots), each in its own frame; with
   order-by keys, each tuple is keyed and the tuples sorted first *)
and emit_ordered keys return =
  let fkeys = List.map (fun (k, _) -> emit k) keys
  and specs = List.map snd keys
  and fret = emit return in
  let sort env frames =
    if specs = [] then frames
    else
      Eval.sort_keyed specs
        (List.map
           (fun frame -> (List.map (fun f -> Eval.order_key (f { env with frame })) fkeys, frame))
           frames)
  in
  fun env frames -> List.concat_map (fun frame -> fret { env with frame }) (sort env frames)

(* two operands, left to right *)
and binary f a b =
  let fa = emit a and fb = emit b in
  fun env ->
    let va = fa env in
    f va (fb env)

(* [c]'s items as a cursor: lazily for the forms {!streams} accepts,
   otherwise the eager closure's list *)
and emit_seq (c : C.t) : env -> Xdm_seq.t =
  if not (streams c) then
    let f = emit c in
    fun env -> Xdm_seq.of_list (f env)
  else begin
    Obs.Metrics.incr stat_nodes;
    match c.C.d with
    | C.C_sequence cs ->
        let fs = List.map emit_seq cs in
        fun env ->
          List.fold_left
            (fun acc f ->
              Xdm_seq.append acc (Xdm_seq.make (fun () -> Xdm_seq.items (f env) ())))
            Xdm_seq.empty fs
    | C.C_range (a, b) -> (
        let fa = emit a and fb = emit b in
        fun env ->
          match range_bounds fa fb env with
          | Some (lo, hi) ->
              Xdm_seq.of_seq
                (Seq.map
                   (fun i -> I.Atomic (A.Integer i))
                   (Seq.init (hi - lo + 1) (fun i -> lo + i)))
          | None -> Xdm_seq.empty)
    | C.C_if (cond, t, f) ->
        let fc = emit_ebv cond and ft = emit_seq t and ff = emit_seq f in
        fun env -> if fc env then ft env else ff env
    | C.C_step (axis, test, preds, ast_preds) -> (
        let step = step_seq axis test preds ast_preds in
        fun env ->
          match D.focus_item env.ctx with
          | I.Atomic _ -> type_err "axis step applied to an atomic context item"
          | I.Node n -> step env n)
    | C.C_path (a, { C.d = C.C_step (axis, test, preds, ast_preds); _ }) ->
        (* the chain emits distinct nodes in document order: no re-sort *)
        let fa = emit_seq a and step = step_seq axis test preds ast_preds in
        fun env ->
          Xdm_seq.make ~sorted:true
            (Seq.concat_map
               (function
                 | I.Node n -> Xdm_seq.items (step env n)
                 | I.Atomic _ -> type_err "path step applied to an atomic value")
               (Xdm_seq.items (fa env)))
    | C.C_filter (e, preds) ->
        let fe = emit_seq e and ps = preds_seq preds in
        fun env -> ps env (fe env)
    | C.C_flwor { clauses; where; return; _ } ->
        let fret = emit_seq return in
        let leaf =
          match Option.map emit_ebv where with
          | None -> fret
          | Some w -> fun env -> if w env then fret env else Xdm_seq.empty
        in
        List.fold_right seq_clause clauses leaf
    | C.C_hash_join j ->
        (* unordered join output streams: the probe side is pulled
           lazily, so exists/head/[position() le k] over a join stop
           after the first matching probe items *)
        let pairs = emit_join_pairs j and fret = emit_seq j.C.jreturn in
        fun env ->
          Xdm_seq.make
            (Seq.concat_map
               (fun (l, r) ->
                 set env j.C.left_slot [ l ];
                 set env j.C.right_slot [ r ];
                 Xdm_seq.items (fret env))
               (pairs env))
    | _ -> assert false (* excluded by [streams] *)
  end

(* effective boolean value: pulls at most two items of a streaming
   form *)
and emit_ebv (c : C.t) : env -> bool =
  if streams c then
    let s = emit_seq c in
    fun env -> Xdm_seq.effective_boolean (s env)
  else
    let f = emit c in
    fun env -> I.effective_boolean (f env)

(* a bounded positional take at the end of a step, filter or path:
   pull through the cursor and stop at the bound; otherwise the closure
   [eager ()] builds *)
and with_bounded_take (c : C.t) eager =
  if Focus_analysis.has_bounded_take c.C.ast && not c.C.upd then
    let s = emit_seq c in
    fun env -> Xdm_seq.to_list (s env)
  else eager ()

(* one axis step from [n] as a cursor, its predicates applied lazily *)
and step_seq axis test preds ast_preds =
  let all = preds_seq preds in
  let rest = match preds with [] -> all | _ :: tl -> preds_seq tl in
  fun env n ->
    match Eval.value_index_step axis test ast_preds n with
    | Some (nodes, _) ->
        rest env (Xdm_seq.of_list ~sorted:true (List.map (fun m -> I.Node m) nodes))
    | None -> all env (scan_seq axis test n)

(* a predicate chain over a cursor: a positional take stops pulling, a
   predicate that reads last() materialises its stage, any other
   filters lazily with an incremental position *)
and preds_seq preds : env -> Xdm_seq.t -> Xdm_seq.t =
  let stage (p : C.t) =
    match Focus_analysis.take_shape p.C.ast with
    | Some (`Nth k) ->
        fun _ cur ->
          if k < 1 then Xdm_seq.empty
          else
            Xdm_seq.make ~sorted:(Xdm_seq.sorted cur)
              (Seq.take 1 (Seq.drop (k - 1) (Xdm_seq.items cur)))
    | Some (`First k) -> fun _ cur -> Xdm_seq.take k cur
    | None ->
        let pf = emit p in
        if Focus_analysis.uses_last p.C.ast then fun env cur ->
          Xdm_seq.of_list ~sorted:(Xdm_seq.sorted cur)
            (apply_preds env (Xdm_seq.to_list cur) [ pf ])
        else fun env cur ->
          (* size is never observed (checked above), so pass 0 *)
          Xdm_seq.filteri
            (fun i item ->
              let pos = i + 1 in
              Eval.pred_keeps pos
                (pf { env with ctx = D.with_focus env.ctx item ~position:pos ~size:0 }))
            cur
  in
  let stages = List.map stage preds in
  fun env cur -> List.fold_left (fun cur f -> f env cur) cur stages

(* the join's (left, right) item pairs that pass its where clause,
   both variables bound when the where runs; the probe side is a
   cursor *)
and emit_join_pairs (j : C.join) =
  let lsrc = emit_seq j.C.left_source
  and lkey = emit j.C.left_key
  and rsrc = emit j.C.right_source
  and rkey = emit j.C.right_key
  and where = Option.map emit_ebv j.C.jwhere in
  fun env ->
    let pairs =
      Eval.hash_join ~general:j.C.general
        ~build:(fun () -> rsrc env)
        ~build_key:(fun item ->
          set env j.C.right_slot [ item ];
          rkey env)
        ~probe_key:(fun item ->
          set env j.C.left_slot [ item ];
          lkey env)
        (Xdm_seq.items (lsrc env))
    in
    match where with
    | None -> pairs
    | Some w ->
        Seq.filter
          (fun (l, r) ->
            set env j.C.left_slot [ l ];
            set env j.C.right_slot [ r ];
            w env)
          pairs

(* a clause around the code [k] for the clauses after it: a for loop
   concatenates [k]'s results, item by item *)
and emit_clause : 'a. C.clause -> (env -> 'a list) -> env -> 'a list =
 fun clause k ->
  match clause with
  | C.Cl_let { slot; var; var_type; value } ->
      let bind = let_binder slot var var_type (emit value) in
      fun env ->
        bind env;
        k env
  | C.Cl_for { slot; pos_slot; var; var_type; source } -> (
      let bind_at = for_binder slot pos_slot var var_type in
      (* the results accumulate reversed in an argument, not a mutable
         cell: a long loop writes no promoted block *)
      match source.C.d with
      | C.C_range (ra, rb) -> (
          (* hot shape: iterate the range without materialising it *)
          let fa = emit ra and fb = emit rb in
          fun env ->
            match range_bounds fa fb env with
            | None -> []
            | Some (lo, hi) ->
                let rec go i acc =
                  if i > hi then List.rev acc
                  else begin
                    bind_at env (i - lo + 1) (I.Atomic (A.Integer i));
                    go (i + 1) (List.rev_append (k env) acc)
                  end
                in
                go lo [])
      | _ ->
          let src = emit source in
          fun env ->
            let rec go i acc = function
              | [] -> List.rev acc
              | item :: rest ->
                  bind_at env i item;
                  go (i + 1) (List.rev_append (k env) acc) rest
            in
            go 1 [] (src env))

(* the same as a cursor: a for clause pulls its source lazily *)
and seq_clause clause (k : env -> Xdm_seq.t) : env -> Xdm_seq.t =
  match clause with
  | C.Cl_let { slot; var; var_type; value } ->
      let bind = let_binder slot var var_type (emit value) in
      fun env ->
        bind env;
        k env
  | C.Cl_for { slot; pos_slot; var; var_type; source } ->
      let src = emit_seq source and bind_at = for_binder slot pos_slot var var_type in
      fun env ->
        Xdm_seq.make
          (Seq.concat_map
             (fun (i, item) ->
               bind_at env i item;
               Xdm_seq.items (k env))
             (Seq.mapi (fun i x -> (i + 1, x)) (Xdm_seq.items (src env))))

(* the fn: builtins that pull their argument as a cursor — exists,
   empty and head at most one item, boolean and not at most two,
   subsequence a bounded prefix — or count a range, which reads only its
   bounds; or [None] *)
and early_exit_call (qn : Qname.t) args =
  let bool1 a f =
    let s = emit_seq a in
    Some
      (fun env ->
        let b = f (s env) in
        Eval.count_call Eval.builtin_calls;
        [ I.Atomic (A.Boolean b) ])
  in
  if qn.Qname.uri <> Some Qname.Ns.fn then None
  else
    match (qn.Qname.local, args) with
    | "exists", [ a ] -> bool1 a (fun s -> not (Xdm_seq.is_empty s))
    | "empty", [ a ] -> bool1 a Xdm_seq.is_empty
    | "boolean", [ a ] -> bool1 a Xdm_seq.effective_boolean
    | "not", [ a ] -> bool1 a (fun s -> not (Xdm_seq.effective_boolean s))
    | "count", [ { C.d = C.C_range (lo, hi); _ } ] ->
        (* a range knows its length: its bounds, cast and checked as
           for its items, and no items *)
        let flo = emit lo and fhi = emit hi in
        Some
          (fun env ->
            let n = match range_bounds flo fhi env with Some (l, h) -> h - l + 1 | None -> 0 in
            Eval.count_call Eval.builtin_calls;
            [ I.Atomic (A.Integer n) ])
    | "head", [ a ] ->
        let s = emit_seq a in
        Some
          (fun env ->
            Eval.count_call Eval.builtin_calls;
            Option.to_list (Xdm_seq.head (s env)))
    | "subsequence", e :: start :: (([] | [ _ ]) as len) ->
        (* as the eager fn:subsequence, pulling only the ceil(upto)-1
           prefix *)
        let s = emit_seq e and fstart = emit start
        and flen = Option.map emit (List.nth_opt len 0) in
        Some
          (fun env ->
            Eval.count_call Eval.builtin_calls;
            let start = fstart env in
            let len = Option.map (fun f -> f env) flen in
            let from, upto = Functions.subsequence_window start len in
            if Float.is_nan from || Float.is_nan upto then []
            else
              let bound =
                if upto = Float.infinity || upto >= 1e18 then max_int
                else if upto <= 1. then 0
                else int_of_float (Float.ceil upto) - 1
              in
              Seq.take bound (Xdm_seq.items (s env))
              |> Seq.mapi (fun i x -> (float_of_int (i + 1), x))
              |> Seq.filter_map (fun (fi, x) -> if fi >= from && fi < upto then Some x else None)
              |> List.of_seq)
    | _ -> None

(* a scripting block: statements in order, the pending updates applied
   at every statement boundary; its value is the last statement's *)
and emit_block stmts : env -> I.sequence =
  let fs = List.map emit_stmt stmts in
  fun env ->
    List.fold_left
      (fun _ f ->
        let v = f env in
        Pul.apply env.ctx.D.pul;
        v)
      [] fs

and emit_stmt (s : C.stmt) : env -> I.sequence =
  match s with
  | C.S_expr e -> emit e
  | C.S_var (slot, var, var_type, init) ->
      let fi = Option.map emit init in
      let coerce = Eval.coerce_var var var_type in
      fun env ->
        set env slot (match fi with Some f -> coerce (f env) | None -> []);
        []
  | C.S_assign (target, e) ->
      let f = emit e in
      let cell =
        match target with
        | C.Local slot -> fun env -> env.frame.(slot)
        | C.Global qn -> fun env -> D.lookup_ref env.ctx qn
      in
      fun env ->
        let v = f env in
        cell env := v;
        []
  | C.S_while (cond, body) ->
      let fc = emit cond and fb = emit_block body in
      fun env ->
        let rec loop () =
          if I.effective_boolean (fc env) then
            match ignore (fb env) with
            | () -> loop ()
            | exception Eval.Break_loop -> ()
            | exception Eval.Continue_loop -> loop ()
        in
        loop ();
        []
  | C.S_break | C.S_continue ->
      let jump = match s with C.S_break -> Eval.Break_loop | _ -> Eval.Continue_loop in
      fun env ->
        Pul.apply env.ctx.D.pul;
        raise jump
  | C.S_exit_with e ->
      let f = emit e in
      fun env ->
        let v = f env in
        Pul.apply env.ctx.D.pul;
        raise (Eval.Exit_with v)

(* ------------------------------------------------------------------ *)
(* programs                                                            *)

let fresh_frame size = Array.init size (fun _ -> ref [])

(* one expression as a closure over a fresh frame *)
let compile_expr static e =
  let core, size = Core_ir.lower static e in
  let f = emit core in
  fun ctx -> f { ctx; frame = fresh_frame size }

let compile_fn static (decl : Ast.function_decl) :
    ((string option * string * int) * fn_impl) option =
  match decl.Ast.body with
  | None -> None (* external: nothing to compile *)
  | Some body ->
      let pnames = List.map fst decl.Ast.params in
      let core, size =
        Core_ir.lower static ~params:pnames
          ~sequential:(decl.Ast.kind = Ast.F_sequential) body
      in
      let bodyf = emit core in
      let params = Array.of_list decl.Ast.params in
      let key = D.fn_key decl.Ast.fname ~arity:(Array.length params) in
      let impl ctx args =
        Eval.call_declared decl ctx (fun ctx ->
            let frame = fresh_frame size in
            List.iteri
              (fun i arg ->
                let pname, ptype = params.(i) in
                frame.(i) <- ref (Eval.coerce_var pname ptype arg))
              args;
            bodyf { ctx; frame })
      in
      Some (key, impl)

(* The body, and the functions and global variables [decls] that
   [Engine.install] added for this program (its own and those of the
   modules it imported): what earlier programs declared in [static]
   has its code already. *)
let compile_prog static (prog : Ast.prog) decls : prog_code =
  Obs.Metrics.incr stat_programs;
  let fns =
    List.filter_map
      (function
        | Ast.P_function decl ->
            let kf = compile_fn static decl in
            if Option.is_some kf then Obs.Metrics.incr stat_fns;
            kf
        | _ -> None)
      decls
  in
  let globals =
    List.filter_map
      (function
        | Ast.P_variable (qn, st, init) -> Some (qn, st, Option.map (compile_expr static) init)
        | _ -> None)
      decls
  in
  { body = Option.map (compile_expr static) prog.Ast.body; fns; globals }
