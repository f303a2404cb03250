(* Streaming: the closure compiler's cursors against the eager
   reference evaluator (unit and QCheck), bounded-pull assertions via
   the obs cursor counters, and the satellite fixes that rode along —
   distinct-values hashing, index-of positions, and the absent-focus
   XPDY0002 errors. *)

open Xquery
module A = Xdm_atomic
module I = Xdm_item
module Q = QCheck
module Ablation = Xmlb.Ablation

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* per-child-list positions differ from merged-descendant positions *)
let pos_doc = "<r><a><x>1</x><x>2</x></a><a><x>3</x></a></r>"

(* a wide flat document for pull-count assertions: row k carries
   @hit='1' only at k = 10 *)
let rows_doc n =
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "<r>";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "<row id='r%d' hit='%d'>v%d</row>" i
         (if i = 10 then 1 else 0)
         i)
  done;
  Buffer.add_string b "</r>";
  Buffer.contents b

(* [streaming]: production, whose consumers pull cursors; otherwise
   the eager reference evaluator *)
let eval_doc ?(doc = pos_doc) ~streaming src =
  Ablation.with_ { Ablation.current with compiled_eval = streaming } (fun () ->
      let node = I.Node (Dom.of_string doc) in
      I.to_display_string (Engine.eval_string ~context_item:node src))

let eval_outcome ?doc ~streaming src =
  match eval_doc ?doc ~streaming src with
  | v -> Ok v
  | exception Xq_error.Error e -> Error e.Xq_error.code

(* assert production and the reference agree, and optionally pin the
   value *)
let both_modes ?doc ?expected name src =
  t name (fun () ->
      let s = eval_doc ?doc ~streaming:true src in
      check Alcotest.string ("eager agrees: " ^ src) s
        (eval_doc ?doc ~streaming:false src);
      match expected with
      | Some e -> check Alcotest.string src e s
      | None -> ())

(* ---------- targeted equivalence: early-exit consumers ---------- *)

let consumer_tests =
  [
    both_modes ~expected:"<x>1</x>" "first item of a path" "(//x)[1]";
    both_modes ~expected:"<x>3</x>" "nth item of a path" "(//x)[3]";
    both_modes ~expected:"" "past-the-end positional take" "(//x)[9]";
    both_modes ~expected:"<x>1</x> <x>2</x>" "bounded prefix via le"
      "(//x)[position() le 2]";
    both_modes ~expected:"<x>1</x>" "bounded prefix via lt"
      "(//x)[position() lt 2]";
    both_modes ~expected:"<x>1</x> <x>3</x>" "per-origin positional predicate"
      "//x[position() = 1]";
    both_modes ~expected:"<x>2</x> <x>3</x>" "needs-last predicate"
      "//x[last()]";
    both_modes ~expected:"<x>2</x> <x>3</x>" "position()=last() predicate"
      "//x[position() = last()]";
    both_modes ~expected:"true" "exists over a path" "exists(//x)";
    both_modes ~expected:"false" "exists over no match" "exists(//y)";
    both_modes ~expected:"false" "empty over a path" "empty(//x)";
    both_modes ~expected:"<x>1</x>" "head of a path" "head(//x)";
    both_modes ~expected:"" "head of empty" "head(//y)";
    both_modes ~expected:"<x>1</x> <x>2</x>" "subsequence prefix"
      "subsequence(//x, 1, 2)";
    both_modes ~expected:"<x>2</x> <x>3</x>" "subsequence from offset"
      "subsequence(//x, 2)";
    both_modes ~expected:"<x>2</x>" "subsequence fractional bounds"
      "subsequence(//x, 1.6, 1)";
    both_modes ~expected:"" "subsequence NaN start"
      "subsequence(//x, number('NaN'), 2)";
    both_modes ~expected:"true" "count gt literal" "count(//x) > 2";
    both_modes ~expected:"false" "count eq wrong literal" "count(//x) = 7";
    both_modes ~expected:"true" "literal-on-left count comparison"
      "4 > count(//x)";
    both_modes ~expected:"true" "count against zero" "count(//y) = 0";
    both_modes ~expected:"true" "boolean of node sequence" "boolean(//x)";
    both_modes ~expected:"true" "not of empty" "not(//y)";
    both_modes ~expected:"true" "existential general comparison"
      "//x = '2'";
    both_modes ~expected:"false" "existential no match" "//x = 'z'";
    both_modes ~expected:"true" "some quantifier"
      "some $v in //x satisfies $v = '3'";
    both_modes ~expected:"false" "every quantifier"
      "every $v in //x satisfies $v = '3'";
    both_modes ~expected:"yes" "if over node-sequence condition"
      "if (//x) then 'yes' else 'no'";
    both_modes ~expected:"true" "exists over a lazy range"
      "exists(1 to 1000000)";
    both_modes ~expected:"5" "head of a range" "head(5 to 9)";
    both_modes ~expected:"true" "quantifier over a range"
      "some $i in 1 to 1000000 satisfies $i = 17";
    both_modes ~expected:"<x>2</x>" "flwor where streams"
      "for $v in //x where $v = '2' return $v";
    both_modes ~expected:"true" "exists over flwor"
      "exists(for $v in //x where $v = '3' return $v)";
  ]

(* ---------- bounded pulls: the cursor stops early ---------- *)

let counters f =
  Obs.Metrics.reset ();
  let v = f () in
  (v, Obs.Metrics.(value (counter "xdm.seq.pulls")))

(* production pulls early-exit consumers through cursors; the eager
   reference pulls through none *)
let bounded_pull_tests =
  let mode = " (compiled)" in
  let doc = rows_doc 1000 in
  let run src = eval_doc ~doc ~streaming:true src in
  [
    t ("first-of-1000 pulls one item" ^ mode) (fun () ->
        let v, pulls = counters (fun () -> run "string((//row)[1])") in
        check Alcotest.string "value" "v1" v;
        check Alcotest.bool "pulled once, not 1000" true (pulls <= 2));
    t ("exists with early hit pulls a bounded prefix" ^ mode) (fun () ->
        let v, pulls =
          counters (fun () -> run "exists(//row[@hit='1'])")
        in
        check Alcotest.string "value" "true" v;
        (* the hit is at row 10: far fewer pulls than the 1000 rows *)
        check Alcotest.bool
          (Printf.sprintf "pulls %d <= 30" pulls)
          true (pulls <= 30));
    t ("bounded count pulls k+1 items" ^ mode) (fun () ->
        let v, pulls = counters (fun () -> run "count(//row) > 5") in
        check Alcotest.string "value" "true" v;
        check Alcotest.bool
          (Printf.sprintf "pulls %d <= 8" pulls)
          true (pulls <= 8));
    t ("quantifier stops at the witness" ^ mode) (fun () ->
        let v, pulls =
          counters (fun () ->
              run "some $v in //row satisfies $v/@hit = '1'")
        in
        check Alcotest.string "value" "true" v;
        check Alcotest.bool
          (Printf.sprintf "pulls %d <= 30" pulls)
          true (pulls <= 30));
    t "eager mode pulls nothing through cursors (interpreted)" (fun () ->
        let _, pulls =
          counters (fun () -> eval_doc ~doc ~streaming:false "(//row)[1]")
        in
        check Alcotest.int "no cursor pulls" 0 pulls);
  ]

(* ---------- joined early-exit: the probe side streams ---------- *)

(* the hash-join plan pulls the probe (left) side through a cursor, so
   early-exiting consumers over a join must stop pulling once
   satisfied; the build side is tiny and eager *)
let joined_early_exit_tests =
  let doc =
    let b = Buffer.create 40_000 in
    Buffer.add_string b "<db><big>";
    for i = 1 to 1000 do
      Buffer.add_string b (Printf.sprintf "<row id='r%d'>v%d</row>" i i)
    done;
    Buffer.add_string b "</big><small><p k='r10'/><p k='r12'/></small></db>";
    Buffer.contents b
  in
  let join =
    "for $r in //row, $p in //p where $r/@id eq $p/@k \
     return string($r/@id)"
  in
  let run src =
    Ablation.with_ { Ablation.current with join_planning = true } (fun () ->
        eval_doc ~doc ~streaming:true src)
  in
  [
    t "exists over a join pulls a bounded probe prefix" (fun () ->
        let v, pulls =
          counters (fun () -> run (Printf.sprintf "exists(%s)" join))
        in
        check Alcotest.string "value" "true" v;
        (* the first match is probe row 10 of 1000 *)
        check Alcotest.bool
          (Printf.sprintf "pulls %d <= 40" pulls)
          true (pulls <= 40));
    t "head of a join stops at the first match" (fun () ->
        let v, pulls =
          counters (fun () -> run (Printf.sprintf "head(%s)" join))
        in
        check Alcotest.string "value" "r10" v;
        check Alcotest.bool
          (Printf.sprintf "pulls %d <= 40" pulls)
          true (pulls <= 40));
    t "positional prefix over a join stops at the k-th match" (fun () ->
        let v, pulls =
          counters (fun () ->
              run
                (Printf.sprintf "string-join((%s)[position() le 2], ' ')" join))
        in
        check Alcotest.string "value" "r10 r12" v;
        (* the second match is probe row 12; nowhere near 1000 pulls *)
        check Alcotest.bool
          (Printf.sprintf "pulls %d <= 40" pulls)
          true (pulls <= 40));
    t "an unbounded consumer drains the whole probe side" (fun () ->
        let v, pulls =
          counters (fun () -> run (Printf.sprintf "string-join((%s), ' ')" join))
        in
        check Alcotest.string "value" "r10 r12" v;
        check Alcotest.bool
          (Printf.sprintf "pulls %d >= 1000" pulls)
          true (pulls >= 1000));
  ]

(* ---------- QCheck: streaming and eager always agree ---------- *)

(* error-free sources biased toward the streaming consumers; streaming
   may legally skip an error an eager evaluation would raise in an
   unconsumed item, so the generator stays error-free and equivalence
   is exact *)
let streaming_src_gen =
  Q.Gen.(
    let pred =
      oneofl
        [
          "1"; "2"; "position() = 1"; "position() le 2"; "position() lt 3";
          "last()"; "position() = last()"; ". = '2'"; "@hit = '1'"; "true()";
          "not(position() = 1)";
        ]
    in
    let path = oneofl [ "//x"; "//r/a/x"; "//y"; "(//x, //x)"; "//a/x" ] in
    let small = map string_of_int (int_range (-2) 5) in
    let consumer =
      [
        map2 (Printf.sprintf "exists(%s[%s])") path pred;
        map2 (Printf.sprintf "empty(%s[%s])") path pred;
        map2 (Printf.sprintf "head(%s[%s])") path pred;
        map2 (Printf.sprintf "(%s)[%s]") path pred;
        map2 (Printf.sprintf "boolean(%s[%s])") path pred;
        map3
          (fun p a b -> Printf.sprintf "subsequence(%s, %s, %s)" p a b)
          path small small;
        map3
          (fun p op k -> Printf.sprintf "count(%s) %s %s" p op k)
          path
          (oneofl [ "="; "!="; "<"; "<="; ">"; ">=" ])
          small;
        map3
          (fun k op p -> Printf.sprintf "%s %s count(%s)" k op p)
          small
          (oneofl [ "="; "<"; ">=" ])
          path;
        map2 (fun p v -> Printf.sprintf "%s = '%s'" p v) path
          (oneofl [ "1"; "2"; "3"; "z" ]);
        map2
          (fun p v -> Printf.sprintf "some $v in %s satisfies $v = '%s'" p v)
          path
          (oneofl [ "1"; "3"; "z" ]);
        map2
          (fun p v -> Printf.sprintf "every $v in %s satisfies $v = '%s'" p v)
          path
          (oneofl [ "1"; "3"; "z" ]);
        map2
          (fun p c ->
            Printf.sprintf "if (%s) then count(%s) else 'none'" c p)
          path pred;
        map2
          (fun p v ->
            Printf.sprintf "for $v in %s where $v = '%s' return $v" p v)
          path
          (oneofl [ "1"; "2"; "z" ]);
        map (Printf.sprintf "exists(1 to %s)") small;
        map2 (Printf.sprintf "string-join(%s[%s], '.')") path pred;
      ]
    in
    oneof consumer)

let equivalence_properties =
  [
    qt ~count:400 "streaming evaluation matches eager"
      (Q.make ~print:Fun.id streaming_src_gen)
      (fun src ->
        eval_outcome ~streaming:true src = eval_outcome ~streaming:false src);
  ]

(* ---------- satellite: fn:distinct-values hashing ---------- *)

let distinct_values_tests =
  [
    both_modes ~expected:"100" ~doc:"<r/>" "distinct-values dedups"
      "count(distinct-values(for $i in 1 to 10000 return $i mod 100))";
    both_modes ~expected:"1 2 3" ~doc:"<r/>"
      "distinct-values keeps first-occurrence order"
      "distinct-values((1, 2, 1, 3, 2))";
    both_modes ~expected:"1" ~doc:"<r/>"
      "untyped and string in the same hash bucket"
      "count(distinct-values((xs:untypedAtomic('a'), 'a')))";
    both_modes ~expected:"1" ~doc:"<r/>"
      "integer and double compare across the numeric bucket"
      "count(distinct-values((1, 1.0e0, xs:decimal('1.0'))))";
    both_modes ~expected:"1" ~doc:"<r/>" "NaN equals NaN for dedup"
      "count(distinct-values((number('NaN'), number('NaN'))))";
    t "10k distinct values stay far from quadratic" (fun () ->
        let t0 = Sys.time () in
        check Alcotest.string "all kept" "10000"
          (eval_doc ~doc:"<r/>" ~streaming:true
             "count(distinct-values(1 to 10000))");
        let elapsed = Sys.time () -. t0 in
        (* the pre-fix O(n^2) scan needs ~5e7 comparisons and seconds
           of CPU; the hashed version is a few milliseconds *)
        check Alcotest.bool
          (Printf.sprintf "%.3fs under threshold" elapsed)
          true (elapsed < 1.0));
  ]

(* ---------- satellite: fn:index-of positions ---------- *)

let index_of_tests =
  [
    both_modes ~expected:"" ~doc:"<r/>" "index-of with no match"
      "index-of((1, 2, 3), 5)";
    both_modes ~expected:"1 3" ~doc:"<r/>" "index-of repeated matches"
      "index-of((1, 2, 1), 1)";
    both_modes ~expected:"2" ~doc:"<r/>" "index-of is 1-based"
      "index-of(('a', 'b', 'c'), 'b')";
    both_modes ~expected:"2" ~doc:"<r/>" "index-of across numeric types"
      "index-of((1.0, 2, 3), 2.0e0)";
    both_modes ~expected:"2" ~doc:"<x><i>a</i><i>b</i></x>"
      "index-of promotes untyped node values to string"
      "index-of(data(//i), 'b')";
    both_modes ~expected:"" ~doc:"<r/>" "index-of over the empty sequence"
      "index-of((), 1)";
  ]

(* ---------- satellite: absent focus raises XPDY0002 ---------- *)

let absent_focus_tests =
  let expect_xpdy src =
    t (src ^ " without focus raises XPDY0002") (fun () ->
        match Engine.eval_string src with
        | _ -> Alcotest.fail "expected XPDY0002, got a value"
        | exception Xq_error.Error e ->
            check Alcotest.string "code" "XPDY0002" e.Xq_error.code)
  in
  [
    expect_xpdy "position()";
    expect_xpdy "last()";
    (* the final step is evaluated per child list (right-nested
       paths), so focus is position-within-origin *)
    both_modes ~expected:"1/2 2/2 1/1" "focus restores position()/last()"
      "string-join(//x/concat(position(), '/', last()), ' ')";
  ]

let suite =
  consumer_tests @ bounded_pull_tests @ joined_early_exit_tests
  @ equivalence_properties @ distinct_values_tests @ index_of_tests
  @ absent_focus_tests
