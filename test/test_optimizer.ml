(* Optimizer: the positional-predicate guard (regression for the
   //x-rewrite miscompilation), the fixpoint driver, and the individual
   rewrite rules — each checked both at the AST level and by comparing
   optimized against unoptimized evaluation. *)

open Xquery
module A = Xdm_atomic
module I = Xdm_item
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* a document where per-child-list positions differ from positions over
   the merged descendant set: <a> lists of 2 and 1 <x> children *)
let pos_doc = "<r><a><x>1</x><x>2</x></a><a><x>3</x></a></r>"

let eval_doc ?(doc = pos_doc) ~optimize src =
  let node = I.Node (Dom.of_string doc) in
  I.to_display_string (Engine.eval_string ~optimize ~context_item:node src)

let both_ways ?doc name expected src =
  t name (fun () ->
      check Alcotest.string ("unoptimized " ^ src) expected
        (eval_doc ?doc ~optimize:false src);
      check Alcotest.string ("optimized " ^ src) expected
        (eval_doc ?doc ~optimize:true src))

let parse_expr src =
  Parser.parse_expression (Engine.default_static ()) src

(* ---------- positional-predicate guard (satellite bugfix) ---------- *)

(* pre-fix, has_positional only looked inside arithmetic, comparisons
   and and/or, so any of these predicates slipped past the guard and
   the //-rewrite regrouped positions over the whole descendant set *)
let positional_regressions =
  [
    (* not(position()=1): per list keeps the 2nd x of the first <a>;
       over the merged set it would keep 2 of 3 *)
    both_ways "position() under fn:not is positional" "1"
      "count(//x[not(position()=1)])";
    both_ways "position()=last() under fn:not" "1"
      "count(//x[not(position()=last())])";
    (* position() buried in an if-condition *)
    both_ways "position() inside if-condition" "2"
      "count(//x[if (position()=1) then true() else false()])";
    (* a user function returning a number is a positional predicate *)
    both_ways "numeric user-function predicate" "2"
      "declare function local:one() { 1 }; count(//x[local:one()])";
    (* sanity: plain numeric predicates were always guarded *)
    both_ways "numeric literal predicate" "2" "count(//x[1])";
    (* the rewrite must still fire for genuinely non-positional
       predicates; same answer either way, and T2/T6-critical *)
    both_ways "value predicate unaffected" "1" "count(//x[. = '2'])";
    both_ways "attribute predicate unaffected"
      "2"
      "count(//i[@c='e'])"
      ~doc:"<r><i c='e'/><i c='o'/><i c='e'/></r>";
    (* updating bodies: rules skip the update node itself but its
       target path is still rewritten — the guard must hold there too *)
    both_ways "positional predicate inside update target" "2"
      "copy $c := <a><p><b/><b/></p><p><b/></p></a> \
       modify delete nodes $c//b[not(position()=1)] \
       return count($c//b)";
    t "has_positional is conservative on unknown forms" (fun () ->
        let positional src = Optimizer.has_positional [ parse_expr src ] in
        check Alcotest.bool "position()" true (positional "position()");
        check Alcotest.bool "last()" true (positional "last()");
        check Alcotest.bool "not(position()=1)" true
          (positional "not(position()=1)");
        check Alcotest.bool "numeric literal" true (positional "2");
        check Alcotest.bool "variable (unknown value)" true (positional "$n");
        check Alcotest.bool "arithmetic" true (positional "1+1");
        check Alcotest.bool "user call (opaque)" true (positional "local:f()");
        check Alcotest.bool "attribute comparison" false
          (positional "@class='even'");
        check Alcotest.bool "contains()" false
          (positional "contains(., 'love')");
        check Alcotest.bool "starts-with()" false
          (positional "starts-with(@id, 'i1')");
        check Alcotest.bool "child path" false (positional "x");
        check Alcotest.bool "boolean ops without position" false
          (positional "@a='1' and not(@b)"));
  ]

(* ---------- fixpoint driver ---------- *)

let is_literal v = function
  | Ast.E_literal a -> a = v
  | _ -> false

let fixpoint_tests =
  [
    t "let-inline then const-fold needs two passes" (fun () ->
        let e = parse_expr "let $x := 1 return $x + 2" in
        check Alcotest.bool "one pass is not enough" false
          (is_literal (A.Integer 3) (Optimizer.optimize_expr ~max_passes:1 e));
        check Alcotest.bool "fixpoint folds to 3" true
          (is_literal (A.Integer 3) (Optimizer.optimize_expr e)));
    t "chained lets fold all the way down" (fun () ->
        let e =
          parse_expr "let $a := 2 return let $b := 3 return $a * $b + 1"
        in
        check Alcotest.bool "folds to 7" true
          (is_literal (A.Integer 7) (Optimizer.optimize_expr e)));
    t "pass budget is respected" (fun () ->
        ignore (Optimizer.optimize_expr ~max_passes:2
                  (parse_expr "let $x := 1 return $x + 2"));
        check Alcotest.bool "pass count within budget" true
          (Optimizer.last_passes () <= 2));
    both_ways "let-inline preserves semantics" "3"
      "let $x := 1 return $x + 2";
    both_ways "shadowed let is not inlined wrongly" "5"
      "let $x := 1 return let $x := 4 return $x + 1";
    both_ways "for-shadowing stops substitution" "6"
      "let $x := 9 return sum(for $x in (1,2,3) return $x)";
    both_ways "scripting block blocks inlining" "2"
      "let $x := 1 return { set $x := $x + 1; $x }";
  ]

(* ---------- individual rewrites ---------- *)

let rewrite_tests =
  [
    (* a leading // is part of the left-associated path, so //a with
       a non-positional predicate becomes descendant::a however many
       steps follow it *)
    t "//a[pred]/b reads descendant::a" (fun () ->
        check Alcotest.string "plan" "(/descendant::a[(attribute::k) = ('v')])/child::b"
          (Ast_printer.expr_to_source (Optimizer.optimize_expr (parse_expr "//a[@k = 'v']/b"))));
    t "concat over literals folds to one string" (fun () ->
        check Alcotest.bool "folded" true
          (is_literal (A.String "abc")
             (Optimizer.optimize_expr (parse_expr "concat('a', 'b', 'c')"))));
    t "concat with non-literal argument is untouched" (fun () ->
        match Optimizer.optimize_expr (parse_expr "concat('a', $v)") with
        | Ast.E_call (_, _) -> ()
        | e ->
            Alcotest.failf "expected a call, got %s"
              (Ast_printer.expr_to_source e));
    t "general comparison of literals becomes value comparison" (fun () ->
        match Optimizer.optimize_expr (parse_expr "1 = 2") with
        | Ast.E_value_comp (Ast.Eq, Ast.E_literal _, Ast.E_literal _) -> ()
        | e ->
            Alcotest.failf "expected a value comparison, got %s"
              (Ast_printer.expr_to_source e));
    t "singleton sequence unwraps" (fun () ->
        check Alcotest.bool "unwrapped" true
          (is_literal (A.Integer 5)
             (Optimizer.optimize_expr (Ast.E_sequence [ Ast.E_literal (A.Integer 5) ]))));
    t "empty members vanish and the rest flattens" (fun () ->
        match
          Optimizer.optimize_expr
            (Ast.E_sequence
               [
                 Ast.E_sequence [];
                 Ast.E_sequence
                   [ Ast.E_literal (A.Integer 1); Ast.E_literal (A.Integer 2) ];
               ])
        with
        | Ast.E_sequence [ Ast.E_literal _; Ast.E_literal _ ] -> ()
        | e ->
            Alcotest.failf "expected a flat 2-sequence, got %s"
              (Ast_printer.expr_to_source e));
    both_ways "concat fold matches runtime semantics" "1b2.5true"
      "concat(1, 'b', 2.5, true())";
    both_ways "general-to-value rewrite preserves semantics" "true"
      "if (2 = 2) then 'true' else 'false'";
    both_ways "errors in dead branches stay dead" "1"
      "if (true()) then 1 else 1 div 0";
  ]

(* ---------- random optimized-vs-unoptimized equivalence ---------- *)

(* Error-free expression sources: integer arithmetic without division,
   comparisons, conditionals, positional paths. The and/or constant
   folds may legally skip an erroring operand (short-circuit rules), so
   the generator never produces errors — equivalence is then exact. *)
let rec src_gen depth =
  Q.Gen.(
    if depth <= 0 then
      oneof
        [
          map string_of_int (int_range (-9) 9);
          oneofl
            [
              "'s'"; "true()"; "false()"; "()"; "position()"; "last()";
              "concat('a', 'b')";
            ];
        ]
    else
      frequency
        [
          (2, src_gen 0);
          ( 3,
            map2
              (fun op (a, b) -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*" ])
              (pair
                 (map string_of_int (int_range (-9) 9))
                 (src_gen (depth - 1))) );
          ( 2,
            map2
              (fun op (a, b) -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "="; "!="; "<" ])
              (pair (map string_of_int (int_range (-9) 9)) (src_gen 0)) );
          ( 2,
            map2
              (fun op (a, b) -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "and"; "or" ])
              (pair (oneofl [ "true()"; "false()"; "1 = 1" ]) (src_gen 0)) );
          ( 2,
            map3
              (fun c a b -> Printf.sprintf "(if (%s) then %s else %s)" c a b)
              (oneofl [ "true()"; "false()"; "2 > 1" ])
              (src_gen (depth - 1)) (src_gen (depth - 1)) );
          ( 2,
            map
              (fun p -> Printf.sprintf "count(//x[%s])" p)
              (oneofl
                 [
                   "1"; "2"; "position() = 1"; "not(position() = 1)";
                   "position() = last()"; ". = '2'"; "true()";
                   "count(../x) > 1";
                 ]) );
          ( 1,
            map2
              (fun lit body ->
                Printf.sprintf "(let $v := %d return (%s + $v))" lit body)
              (int_range (-9) 9)
              (map string_of_int (int_range (-9) 9)) );
          ( 1,
            map
              (fun b -> Printf.sprintf "(for $i in 1 to 3 return (%s))" b)
              (src_gen (depth - 1)) );
        ])

let eval_outcome ~optimize src =
  match eval_doc ~optimize src with
  | v -> Ok v
  | exception Xq_error.Error e -> Error e.Xq_error.code

let equivalence_properties =
  [
    qt ~count:400 "optimized evaluation matches unoptimized"
      (Q.make ~print:Fun.id (src_gen 3))
      (fun src ->
        eval_outcome ~optimize:false src = eval_outcome ~optimize:true src);
  ]

(* ---------- join-planner plan snapshots ---------- *)

(* golden printouts of the optimized plan: the exact shape the planner
   emits is part of the contract, so these pin the full source string
   for the shapes that must fire and assert the hash-join operator
   never appears for the shapes that must not *)
let plan src =
  Xmlb.Ablation.with_ { Xmlb.Ablation.current with join_planning = true } (fun () ->
      Ast_printer.expr_to_source (Optimizer.optimize_expr (parse_expr src)))

let has_hash_join s =
  try
    ignore (Str.search_forward (Str.regexp_string "hash-join") s 0);
    true
  with Not_found -> false

let golden name src expected =
  t name (fun () -> check Alcotest.string src expected (plan src))

let no_join name src =
  t name (fun () ->
      let p = plan src in
      check Alcotest.bool ("stays nested-loop: " ^ p) false (has_hash_join p))

let join_plan_snapshots =
  [
    (* the paper's §6.3 shopping-cart join *)
    golden "cart/catalog equi-join compiles to a hash join"
      "for $c in //cart/item, $p in //products/product \
       where $c/@sku eq $p/@sku return $p/@price"
      "hash-join for $c in ((/descendant::cart)/child::item), \
       $p in ((/descendant::products)/child::product) \
       on (($c)/attribute::sku) eq (($p)/attribute::sku) \
       return (($p)/attribute::price)";
    golden "general '=' join keeps existential marking"
      "for $a in //a, $b in //b where $a/@k = $b/@k return $a"
      "hash-join for $a in (/descendant::a), $b in (/descendant::b) \
       on (($a)/attribute::k) = (($b)/attribute::k) return ($a)";
    golden "residual conjunct and order-by survive around the join"
      "for $a in //a, $b in //b where $a/@k eq $b/@k and $a/@q = '1' \
       order by $b/@id return $b"
      "hash-join for $a in (/descendant::a), $b in (/descendant::b) \
       on (($a)/attribute::k) eq (($b)/attribute::k) \
       where ((($a)/attribute::q) = ('1')) \
       order by (($b)/attribute::id) return ($b)";
    no_join "position variable blocks the rewrite"
      "for $a at $i in //a, $b in //b where $a/@k eq $b/@k return $a";
    no_join "correlated build source blocks the rewrite"
      "for $a in //a, $b in $a/b where $a/@k eq $b/@k return $a";
    no_join "join comparison must be the first conjunct"
      "for $a in //a, $b in //b where $a/@q = '1' and $a/@k eq $b/@k return $a";
    no_join "positional/last()-dependent key blocks the rewrite"
      "for $a in //a, $b in //b \
       where $a/@k[position() = last()] eq $b/@k return $a";
    no_join "only equality comparisons are join keys"
      "for $a in //a, $b in //b where $a/@k lt $b/@k return $a";
    no_join "updating return keeps the nested-loop plan"
      "for $a in //a, $b in //b where $a/@k eq $b/@k return delete node $a";
    no_join "scripting block in the where keeps the nested-loop plan"
      "for $a in //a, $b in //b where $a/@k eq $b/@k \
       and ({ declare variable $x := 1; $x = 1 }) return $a";
  ]

let suite =
  positional_regressions @ fixpoint_tests @ rewrite_tests
  @ equivalence_properties @ join_plan_snapshots
