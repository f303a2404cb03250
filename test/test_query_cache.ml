(* The compiled-query cache: LRU/generation mechanics of Query_cache
   itself, Engine.compile_cached hit semantics (a hit installs the
   cached prolog), cache transparency (same results cache-on and
   cache-off), and the engine bugfixes that rode along: external
   variables must raise XPDY0002 when unbound and be type-coerced when
   bound, and the static context must hold the optimized function
   bodies and variable initializers. *)

open Xquery
module A = Xdm_atomic
module I = Xdm_item
module QC = Query_cache
module Q = QCheck
module Ablation = Xmlb.Ablation

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* every test in this file starts from an empty engine cache *)
let fresh f =
  QC.clear Engine.query_cache;
  QC.reset_stats Engine.query_cache;
  f ()

(* ---------- Query_cache mechanics ---------- *)

let cache_unit_tests =
  [
    t "find after add hits; unknown key misses" (fun () ->
        fresh (fun () ->
            let c : int QC.t = QC.create ~name:"t" ~capacity:4 () in
            QC.add c "k" ~cost:10 42;
            check Alcotest.(option int) "hit" (Some 42) (QC.find c "k");
            check Alcotest.(option int) "miss" None (QC.find c "nope");
            let s = QC.stats c in
            check Alcotest.int "hits" 1 s.QC.hits;
            check Alcotest.int "misses" 1 s.QC.misses;
            check Alcotest.int "cost saved" 10 s.QC.cost_saved));
    t "LRU eviction drops the least recently used" (fun () ->
        fresh (fun () ->
            let c : int QC.t = QC.create ~capacity:2 () in
            QC.add c "a" ~cost:1 1;
            QC.add c "b" ~cost:1 2;
            ignore (QC.find c "a");
            (* b is now least recently used *)
            QC.add c "c" ~cost:1 3;
            check Alcotest.(option int) "a kept" (Some 1) (QC.find c "a");
            check Alcotest.(option int) "b evicted" None (QC.find c "b");
            check Alcotest.(option int) "c kept" (Some 3) (QC.find c "c");
            check Alcotest.int "one eviction" 1 (QC.stats c).QC.evictions));
    t "invalidate makes old entries stale" (fun () ->
        fresh (fun () ->
            let c : int QC.t = QC.create () in
            QC.add c "k" ~cost:1 1;
            QC.invalidate c;
            check Alcotest.(option int) "stale entry misses" None (QC.find c "k");
            check Alcotest.int "slot was freed" 0 (QC.length c);
            QC.add c "k" ~cost:1 2;
            check Alcotest.(option int) "new generation hits" (Some 2)
              (QC.find c "k");
            check Alcotest.int "generation advanced" 1 (QC.generation c)));
    t "shrinking capacity evicts immediately" (fun () ->
        fresh (fun () ->
            let c : int QC.t = QC.create ~capacity:8 () in
            for i = 1 to 8 do
              QC.add c (string_of_int i) ~cost:1 i
            done;
            QC.set_capacity c 3;
            check Alcotest.int "down to 3" 3 (QC.length c)));
  ]

(* ---------- Engine.compile_cached ---------- *)

let qstats () = QC.stats Engine.query_cache

let engine_cache_tests =
  [
    t "second compile against a fresh context is a hit" (fun () ->
        fresh (fun () ->
            let src = "declare function local:f($x) { $x + 1 }; local:f(1)" in
            let c1 = Engine.compile_cached ~static:(Engine.default_static ()) src in
            let c2 = Engine.compile_cached ~static:(Engine.default_static ()) src in
            check Alcotest.int "one miss" 1 (qstats ()).QC.misses;
            check Alcotest.int "one hit" 1 (qstats ()).QC.hits;
            check Alcotest.int "cost = source bytes" (String.length src)
              (qstats ()).QC.cost_saved;
            check Alcotest.string "both artifacts run identically"
              (I.to_display_string (Engine.run c1))
              (I.to_display_string (Engine.run c2))));
    t "replay registers functions in the caller's context" (fun () ->
        fresh (fun () ->
            let src = "declare function local:g() { 7 }; local:g()" in
            ignore (Engine.compile_cached ~static:(Engine.default_static ()) src);
            let static = Engine.default_static () in
            let c = Engine.compile_cached ~static src in
            check Alcotest.int "hit" 1 (qstats ()).QC.hits;
            let g = Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "g" in
            check Alcotest.bool "local:g visible in caller's context" true
              (Static_context.find_function static g ~arity:0 <> None);
            check Alcotest.string "cached program evaluates" "7"
              (I.to_display_string (Engine.run c))));
    t "replay re-declares global variables" (fun () ->
        fresh (fun () ->
            let src = "declare variable $v := 5; $v * 2" in
            ignore (Engine.compile_cached ~static:(Engine.default_static ()) src);
            let c = Engine.compile_cached ~static:(Engine.default_static ()) src in
            check Alcotest.string "hit run sees $v" "10"
              (I.to_display_string (Engine.run c))));
    t "different optimize flags are different entries" (fun () ->
        fresh (fun () ->
            let src = "1 + 2" in
            ignore (Engine.compile_cached ~optimize:true src);
            ignore (Engine.compile_cached ~optimize:false src);
            check Alcotest.int "no cross-flag hit" 2 (qstats ()).QC.misses));
    t "compiled-eval flag and every ablation field key the cache" (fun () ->
        fresh (fun () ->
            let src = "2 + 2" in
            let compile v = Ablation.with_ v (fun () -> Engine.compile_cached src) in
            let on = { Ablation.current with compiled_eval = true } in
            let off = { on with compiled_eval = false } in
            ignore (compile on);
            ignore (compile off);
            check Alcotest.int "no cross-mode hit" 2 (qstats ()).QC.misses;
            ignore (compile on);
            check Alcotest.int "same-mode re-compile hits" 1 (qstats ()).QC.hits;
            (* the compiled-mode artifact carries closure code, the
               interpreted-mode one must not *)
            let has_code (c : Engine.compiled) =
              match c.Engine.code with Some _ -> true | None -> false
            in
            check Alcotest.bool "compiled entry carries code" true
              (has_code (compile on));
            check Alcotest.bool "reference entry carries no code" false
              (has_code (compile off));
            (* each value differs from [on] in exactly one field, and
               together they flip every field *)
            let flipped =
              [
                { on with acceleration = false };
                { on with value_index = false };
                { on with interning = false };
                { on with join_planning = false };
                { on with compiled_eval = false };
                { on with query_cache = false };
                { on with incremental = false };
              ]
            in
            let changed v =
              List.filter_map
                (fun ((name, a), (_, b)) -> if a <> b then Some name else None)
                (List.combine (Ablation.fields on) (Ablation.fields v))
            in
            check
              Alcotest.(list string)
              "every field flipped once"
              (List.map fst (Ablation.fields on))
              (List.concat_map changed flipped);
            QC.clear Engine.query_cache;
            ignore (compile on);
            List.iter
              (fun v ->
                let name = String.concat "" (changed v) in
                let hits = (qstats ()).QC.hits in
                ignore (compile v);
                check Alcotest.int (name ^ " off misses") hits (qstats ()).QC.hits;
                ignore (compile on);
                check Alcotest.int (name ^ " back on hits") (hits + 1)
                  (qstats ()).QC.hits)
              flipped));
    t "different static contexts are different entries" (fun () ->
        fresh (fun () ->
            let src = "$w + 1" in
            let s1 = Engine.default_static () in
            Static_context.declare_variable s1 (Xmlb.Qname.make "w") None
              (Some (Ast.E_literal (A.Integer 1)));
            ignore (Engine.compile_cached ~static:s1 src);
            (* same source against a context without $w must not hit *)
            ignore
              (try
                 ignore (Engine.compile_cached ~static:(Engine.default_static ()) src)
               with Xq_error.Error _ -> ());
            check Alcotest.int "fingerprint kept them apart" 2
              (qstats ()).QC.misses));
    t "disabled engine cache still compiles correctly" (fun () ->
        fresh (fun () ->
            Ablation.with_ { Ablation.current with query_cache = false } @@ fun () ->
            let c = Engine.compile_cached "2 + 3" in
            check Alcotest.string "plain compile path" "5"
              (I.to_display_string (Engine.run c));
            check Alcotest.int "nothing recorded" 0
              ((qstats ()).QC.hits + (qstats ()).QC.misses)));
    t "page reload compiles from the cache" (fun () ->
        fresh (fun () ->
            let page =
              "<html><head><script type=\"text/xquery\">declare function \
               local:h() { <hit/> }; insert node local:h() into \
               //div</script></head><body><div id=\"d\"/></body></html>"
            in
            let load () =
              let b = Xqib.Browser.create () in
              Xqib.Page.load b page;
              Xqib.Browser.run b;
              Dom.serialize (Xqib.Browser.document b)
            in
            let first = load () in
            let misses_after_first = (qstats ()).QC.misses in
            let second = load () in
            check Alcotest.bool "first load misses" true (misses_after_first > 0);
            check Alcotest.bool "second load hits" true ((qstats ()).QC.hits > 0);
            check Alcotest.int "no new misses on reload" misses_after_first
              (qstats ()).QC.misses;
            check Alcotest.string "identical DOM from cached compile" first
              second));
  ]

(* ---------- engine bugfixes: external variables ---------- *)

let external_var_tests =
  let x = Xmlb.Qname.make "x" in
  [
    t "unbound external variable raises XPDY0002" (fun () ->
        fresh (fun () ->
            let c = Engine.compile "declare variable $x external; $x + 1" in
            match Engine.run c with
            | _ -> Alcotest.fail "expected XPDY0002, got a value"
            | exception Xq_error.Error e ->
                check Alcotest.string "code" "XPDY0002" e.Xq_error.code));
    t "bound external variable evaluates" (fun () ->
        fresh (fun () ->
            let c = Engine.compile "declare variable $x external; $x + 1" in
            check Alcotest.string "bound value used" "6"
              (I.to_display_string
                 (Engine.run ~bindings:[ (x, [ I.Atomic (A.Integer 5) ]) ] c))));
    t "typed external binding is coerced" (fun () ->
        fresh (fun () ->
            let c =
              Engine.compile
                "declare variable $x as xs:double external; \
                 $x instance of xs:double"
            in
            (* integer 5 promotes to double under the declared type *)
            check Alcotest.string "promoted to double" "true"
              (I.to_display_string
                 (Engine.run ~bindings:[ (x, [ I.Atomic (A.Integer 5) ]) ] c))));
    t "ill-typed external binding is rejected" (fun () ->
        fresh (fun () ->
            let c =
              Engine.compile "declare variable $x as xs:string external; $x"
            in
            match Engine.run ~bindings:[ (x, [ I.Atomic (A.Integer 5) ]) ] c with
            | _ -> Alcotest.fail "expected a type error"
            | exception Xq_error.Error _ -> ()));
  ]

(* ---------- the static context holds the optimized declarations ---------- *)

let reregistration_tests =
  [
    t "optimized variable initializer reaches the static context" (fun () ->
        fresh (fun () ->
            let static = Engine.default_static () in
            ignore (Engine.compile ~static "declare variable $v := 1 + 2; $v");
            match Static_context.global_variables static with
            | [ (_, _, Some (Ast.E_literal (A.Integer 3))) ] -> ()
            | [ (_, _, Some e) ] ->
                Alcotest.failf "initializer not optimized: %s"
                  (Ast_printer.expr_to_source e)
            | _ -> Alcotest.fail "expected exactly one global variable"));
    t "optimized function body reaches the static context" (fun () ->
        fresh (fun () ->
            let static = Engine.default_static () in
            ignore
              (Engine.compile ~static
                 "declare function local:k() { 2 + 3 }; local:k()");
            let k = Xmlb.Qname.make ~uri:Xmlb.Qname.Ns.local "k" in
            match Static_context.find_function static k ~arity:0 with
            (* the body parses as a scripting block around the expression *)
            | Some { Ast.body = Some (Ast.E_literal (A.Integer 5)); _ }
            | Some
                {
                  Ast.body = Some (Ast.E_block [ Ast.S_expr (Ast.E_literal (A.Integer 5)) ]);
                  _;
                } ->
                ()
            | Some { Ast.body = Some e; _ } ->
                Alcotest.failf "body not optimized: %s"
                  (Ast_printer.expr_to_source e)
            | _ -> Alcotest.fail "local:k not found"));
  ]

(* ---------- cache transparency ---------- *)

let transparency_doc = "<r><a><x>1</x><x>2</x></a><a><x>3</x></a></r>"

let eval_once src =
  let node = I.Node (Dom.of_string transparency_doc) in
  match I.to_display_string (Engine.eval_string ~context_item:node src) with
  | v -> Ok v
  | exception Xq_error.Error e -> Error e.Xq_error.code

(* an answer must not depend on whether it came from a cold compile, a
   warm hit, or no cache at all *)
let transparent src =
  fresh (fun () ->
      let cold = eval_once src in
      let warm = eval_once src in
      let off =
        Ablation.with_ { Ablation.current with query_cache = false } (fun () ->
            eval_once src)
      in
      cold = warm && warm = off)

let src_gen =
  Q.Gen.(
    let small = int_range (-9) 9 in
    frequency
      [
        (2, map (fun i -> Printf.sprintf "%d + %d" i i) small);
        ( 2,
          map2
            (fun a b -> Printf.sprintf "let $v := %d return $v * %d" a b)
            small small );
        ( 2,
          map
            (fun p -> Printf.sprintf "count(//x[%s])" p)
            (oneofl [ "1"; "not(position()=1)"; ". = '2'"; "true()" ]) );
        ( 1,
          map
            (fun i ->
              Printf.sprintf
                "declare function local:f($n) { $n + %d }; local:f(%d)" i i)
            small );
        ( 1,
          map
            (fun i -> Printf.sprintf "string-join(for $i in 1 to %d return 'a', '')"
                        (abs i))
            small );
      ])

let transparency_properties =
  [
    qt ~count:120 "cold, warm and cache-off evaluation agree"
      (Q.make ~print:Fun.id src_gen)
      transparent;
    t "transparency on curated sources" (fun () ->
        List.iter
          (fun src ->
            check Alcotest.bool ("transparent: " ^ src) true (transparent src))
          [
            "count(//x[not(position()=1)])";
            "declare variable $v := 2; $v + 1";
            "copy $c := <a><b/><b/></a> modify delete node $c/b[1] \
             return count($c/b)";
            "concat('a', 'b', 'c')";
            "let $x := 1 return $x + 2";
          ]);
  ]

let suite =
  cache_unit_tests @ engine_cache_tests @ external_var_tests
  @ reregistration_tests @ transparency_properties
