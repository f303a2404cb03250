(* Differential join-testing suite: the value indexes and the
   join-aware FLWOR planner are pinned against the nested-loop oracle
   (both accelerations off) across all four config combinations, on
   randomly generated documents and equi-join FLWORs.  Satellites ride
   along: '=' vs 'eq' semantics regressions, and value-index
   invalidation under PUL updates. *)

open Xquery
module I = Xdm_item
module Q = QCheck
module Ablation = Xmlb.Ablation

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

let eval_doc ~doc src =
  let node = I.Node (Dom.of_string doc) in
  I.to_display_string (Engine.eval_string ~context_item:node src)

let eval_outcome ~doc src =
  match eval_doc ~doc src with
  | v -> Ok v
  | exception Xq_error.Error e -> Error e.Xq_error.code

let outcome = Alcotest.(result string string)

(* oracle first: nested-loop evaluation with every acceleration off *)
let configs =
  [ (false, false); (true, false); (false, true); (true, true) ]

let oracle_of ~doc src =
  Ablation.with_
    { Ablation.current with value_index = false; join_planning = false }
    (fun () -> eval_outcome ~doc src)

(* item-for-item agreement: the display string preserves order and
   duplicates, so string equality is sequence equality *)
let agree ~doc src =
  let oracle = oracle_of ~doc src in
  List.for_all
    (fun (v, p) ->
      Ablation.with_
        { Ablation.current with value_index = v; join_planning = p }
        (fun () -> eval_outcome ~doc src)
      = oracle)
    configs

let differential ?expected ~doc name src =
  t name (fun () ->
      let oracle = oracle_of ~doc src in
      (match expected with
      | Some e -> check outcome ("oracle: " ^ src) (Ok e) oracle
      | None -> ());
      List.iter
        (fun (v, p) ->
          check outcome
            (Printf.sprintf "%s [vidx=%b planner=%b]" src v p)
            oracle
            (Ablation.with_ { Ablation.current with value_index = v; join_planning = p } (fun () ->
                 eval_outcome ~doc src)))
        configs)

(* ---------- random documents: two keyed tables ---------- *)

(* a row has an optional key attribute @k, zero to two <k> child
   elements (two make 'eq' on the child key a type error while '='
   stays existential), and a small flag @q for extra conjuncts *)
type row = { ak : string option; cks : string list; q : int }

let render_row tag i r =
  Printf.sprintf "<%s id='%s%d'%s q='%d'>%s</%s>" tag tag i
    (match r.ak with Some k -> Printf.sprintf " k='%s'" k | None -> "")
    r.q
    (String.concat "" (List.map (fun k -> "<k>" ^ k ^ "</k>") r.cks))
    tag

let doc_of (os, ps) =
  let table tag rows =
    String.concat "" (List.mapi (fun i r -> render_row tag (i + 1) r) rows)
  in
  "<db><os>" ^ table "o" os ^ "</os><ps>" ^ table "p" ps ^ "</ps></db>"

(* the key pool is small so joins actually match, includes duplicates
   across rows, and carries the '7' vs '07' untyped-promotion trap:
   untyped join keys compare as strings, so these must NOT join *)
let key_gen = Q.Gen.oneofl [ "k0"; "k1"; "k2"; "7"; "07" ]

let row_gen =
  Q.Gen.(
    let opt_key =
      frequency [ (6, map Option.some key_gen); (1, return None) ]
    in
    map3
      (fun ak cks q -> { ak; cks; q })
      opt_key
      (list_size (int_bound 2) key_gen)
      (int_bound 1))

let tables_gen =
  Q.Gen.(pair (list_size (int_bound 6) row_gen) (list_size (int_bound 6) row_gen))

(* ---------- random equi-join FLWORs and index lookups ---------- *)

let query_gen =
  Q.Gen.(
    let ka = oneofl [ "$a/@k"; "$a/k" ] in
    let kb = oneofl [ "$b/@k"; "$b/k" ] in
    let cmp = oneofl [ "eq"; "=" ] in
    let extra =
      oneofl [ ""; " and $a/@q = '1'"; " and $b/@q = '0'" ]
    in
    let order = oneofl [ ""; " order by $b/@id" ] in
    let ret =
      oneofl
        [ "concat($a/@id, ':', $b/@id)"; "$b/@id"; "string($a/@q)" ]
    in
    let join =
      ka >>= fun ka ->
      kb >>= fun kb ->
      cmp >>= fun cmp ->
      extra >>= fun extra ->
      order >>= fun order ->
      ret >>= fun ret ->
      return
        (Printf.sprintf "for $a in //o, $b in //p where %s %s %s%s%s return %s"
           ka cmp kb extra order ret)
    in
    let lookup =
      key_gen >>= fun k ->
      oneofl
        [
          Printf.sprintf "count(//o[@k eq '%s'])" k;
          Printf.sprintf "count(//p[@k = '%s'])" k;
          Printf.sprintf "string-join(//p[k = '%s']/@id, ' ')" k;
          Printf.sprintf "count(//o[k eq '%s'])" k;
        ]
    in
    let wrapped =
      join >>= fun j ->
      oneofl
        [
          j;
          Printf.sprintf "exists(%s)" j;
          Printf.sprintf "count(%s)" j;
          Printf.sprintf "string-join((%s), ' ')" j;
          Printf.sprintf "(%s)[1]" j;
        ]
    in
    frequency [ (4, wrapped); (1, lookup) ])

let case_gen = Q.Gen.pair tables_gen query_gen
let print_case (tables, src) = doc_of tables ^ "\n" ^ src

let differential_properties =
  [
    qt ~count:400 "joins agree across all index/planner configs"
      (Q.make ~print:print_case case_gen)
      (fun (tables, src) -> agree ~doc:(doc_of tables) src);
  ]

(* ---------- counters: the fast paths actually execute ---------- *)

let counters names f =
  Obs.Metrics.reset ();
  let v = f () in
  (v, List.map (fun n -> Obs.Metrics.(value (counter n))) names)

let join_doc =
  "<db><os><o id='o1' k='a'/><o id='o2' k='b'/><o id='o3' k='a'/></os>\
   <ps><p id='p1' k='a'/><p id='p2' k='c'/></ps></db>"

let join_q =
  "for $a in //o, $b in //p where $a/@k eq $b/@k \
   return concat($a/@id, ':', $b/@id)"

let counter_tests =
  [
    t "planner on builds one table and probes each left row" (fun () ->
        let v, cs =
          counters [ "xquery.join.hash_builds"; "xquery.join.probes" ]
            (fun () ->
              Ablation.with_ { Ablation.current with value_index = false; join_planning = true } (fun () ->
                  eval_doc ~doc:join_doc join_q))
        in
        check Alcotest.string "join result" "o1:p1 o3:p1" v;
        check Alcotest.(list int) "builds=1 probes=3" [ 1; 3 ] cs);
    t "planner off never touches the hash-join path" (fun () ->
        let v, cs =
          counters [ "xquery.join.hash_builds"; "xquery.join.probes" ]
            (fun () ->
              Ablation.with_ { Ablation.current with value_index = true; join_planning = false } (fun () ->
                  eval_doc ~doc:join_doc join_q))
        in
        check Alcotest.string "join result" "o1:p1 o3:p1" v;
        check Alcotest.(list int) "no builds, no probes" [ 0; 0 ] cs);
    t "value index serves descendant attribute lookups" (fun () ->
        let v, cs =
          counters [ "dom.value_index.hits" ] (fun () ->
              Ablation.with_ { Ablation.current with value_index = true; join_planning = false } (fun () ->
                  eval_doc ~doc:join_doc "count(//o[@k eq 'a'])"))
        in
        check Alcotest.string "lookup result" "2" v;
        check Alcotest.bool "index hit" true (List.hd cs >= 1));
    t "disabled value index never hits" (fun () ->
        let v, cs =
          counters [ "dom.value_index.hits" ] (fun () ->
              Ablation.with_ { Ablation.current with value_index = false; join_planning = false } (fun () ->
                  eval_doc ~doc:join_doc "count(//o[@k eq 'a'])"))
        in
        check Alcotest.string "lookup result" "2" v;
        check Alcotest.(list int) "no hits" [ 0 ] cs);
  ]

(* ---------- satellite: '=' vs 'eq' join semantics ---------- *)

let semantics_doc =
  "<db><os>\
   <o id='o1' k='a'><k>a</k></o>\
   <o id='o2' k='b'><k>b</k><k>c</k></o>\
   <o id='o3' k='7'/>\
   </os><ps>\
   <p id='p1' k='a'><k>a</k></p>\
   <p id='p2' k='c'><k>c</k></p>\
   <p id='p3' k='07'/>\
   </ps></db>"

let semantics_tests =
  [
    (* existential general comparison inside a predicate must stay a
       scan-with-existential-match, never a singleton hash lookup *)
    (* //p/k holds {'a','c'}: only o1's key is in the set; 'eq'
       against the multi-valued path would be a type error instead *)
    differential ~doc:semantics_doc ~expected:"o1"
      "predicate '=' against a multi-valued path stays existential"
      "string-join(//o[@k = //p/k]/@id, ' ')";
    differential ~doc:semantics_doc ~expected:"o1:p1 o2:p2"
      "general '=' join matches any key of a multi-valued row"
      "string-join(for $a in //o, $b in //p where $a/k = $b/k \
       return concat($a/@id, ':', $b/@id), ' ')";
    (* 'eq' requires singleton operands: o2 carries two <k> children,
       so the query is a type error under every config *)
    t "multi-valued 'eq' key raises XPTY0004 in all configs" (fun () ->
        List.iter
          (fun (v, p) ->
            match
              Ablation.with_ { Ablation.current with value_index = v; join_planning = p } (fun () ->
                  eval_outcome ~doc:semantics_doc
                    "for $a in //o, $b in //p where $a/k eq $b/k \
                     return $a/@id")
            with
            | Error code ->
                check Alcotest.string
                  (Printf.sprintf "code [vidx=%b planner=%b]" v p)
                  "XPTY0004" code
            | Ok v' -> Alcotest.failf "expected XPTY0004, got %S" v')
          configs);
    (* untyped attribute keys atomize to untypedAtomic and compare as
       strings for both 'eq' and '=': '7' and '07' must not join *)
    differential ~doc:semantics_doc ~expected:""
      "untyped keys join by string value under 'eq'"
      "string-join(for $a in //o, $b in //p where $a/@k eq $b/@k \
       and $a/@id = 'o3' return $b/@id, ' ')";
    differential ~doc:semantics_doc ~expected:""
      "untyped keys join by string value under '='"
      "string-join(for $a in //o, $b in //p where $a/@k = $b/@k \
       and $a/@id = 'o3' return $b/@id, ' ')";
    (* empty key sides: a row without the attribute joins nothing but
       kills nothing else *)
    differential ~doc:"<db><os><o id='o1'/><o id='o2' k='a'/></os>\
                       <ps><p id='p1' k='a'/></ps></db>"
      ~expected:"o2:p1" "absent keys drop out quietly"
      "string-join(for $a in //o, $b in //p where $a/@k eq $b/@k \
       return concat($a/@id, ':', $b/@id), ' ')";
    (* an empty build side must not evaluate probe keys at all: the
       multi-valued probe key would raise, but no probes happen *)
    differential
      ~doc:"<db><os><o id='o1'><k>a</k><k>b</k></o></os><ps/></db>"
      ~expected:"" "empty build side short-circuits probe-key errors"
      "string-join(for $a in //o, $b in //p where $a/k eq $b/k \
       return $a/@id, ' ')";
  ]

(* ---------- satellite: PUL updates invalidate the index ---------- *)

(* a mutating session against one shared tree: run lookups with the
   index on, apply an update through the engine's PUL, and require the
   indexed answers to match a fresh scan (index off) on the mutated
   tree. The apply must reach the DOM as exactly [writes] mutations
   (each one a write the indexes are kept through) and rebuild no
   index: the buckets built before it are updated in place. *)
let session_doc () =
  Dom.of_string
    "<db><ps><p id='p1' k='a'><n>x</n></p><p id='p2' k='b'><n>y</n></p>\
     <p id='p3'><n>z</n></p></ps></db>"

let indexed node src =
  Ablation.with_ { Ablation.current with value_index = true; join_planning = false } (fun () ->
      I.to_display_string (Engine.eval_string ~context_item:(I.Node node) src))

let fresh_scan node src =
  Ablation.with_ { Ablation.current with value_index = false; join_planning = false } (fun () ->
      I.to_display_string (Engine.eval_string ~context_item:(I.Node node) src))

let match_scan node src =
  check Alcotest.string ("indexed matches scan: " ^ src) (fresh_scan node src)
    (indexed node src)

let apply_update node ~writes src =
  (* the update selects its target by id: build that index first *)
  ignore (indexed node "count(//p[@id = 'p1'])");
  let seen = ref 0 in
  let o = Dom.observe ~root:node (fun _ -> incr seen) in
  let (), rebuilds =
    counters [ "dom.value_index.rebuild"; "dom.accel.index.rebuild" ] (fun () ->
        ignore (indexed node src))
  in
  Dom.unobserve o;
  check Alcotest.int ("writes: " ^ src) writes !seen;
  check Alcotest.(list int) ("no index rebuilt: " ^ src) [ 0; 0 ] rebuilds

let invalidation_tests =
  [
    t "renaming an attribute moves it between index keys" (fun () ->
        let d = session_doc () in
        check Alcotest.string "before" "1" (indexed d "count(//p[@k eq 'b'])");
        apply_update d ~writes:1 "rename node (//p[@id = 'p2'])/@k as 'j'";
        match_scan d "count(//p[@k eq 'b'])";
        match_scan d "count(//p[@j eq 'b'])";
        check Alcotest.string "old name gone" "0"
          (indexed d "count(//p[@k eq 'b'])");
        check Alcotest.string "new name found" "1"
          (indexed d "count(//p[@j eq 'b'])"));
    t "replacing an attribute value re-keys the row" (fun () ->
        let d = session_doc () in
        check Alcotest.string "before" "1" (indexed d "count(//p[@k eq 'a'])");
        apply_update d ~writes:1
          "replace value of node (//p[@id = 'p1'])/@k with 'z'";
        match_scan d "count(//p[@k eq 'a'])";
        match_scan d "count(//p[@k eq 'z'])";
        check Alcotest.string "old value gone" "0"
          (indexed d "count(//p[@k eq 'a'])");
        check Alcotest.string "new value found" "1"
          (indexed d "count(//p[@k eq 'z'])"));
    t "inserting an attribute adds a row to the index" (fun () ->
        let d = session_doc () in
        check Alcotest.string "before" "1" (indexed d "count(//p[@k eq 'a'])");
        apply_update d ~writes:1
          "insert node attribute k { 'a' } into (//p[@id = 'p3'])[1]";
        match_scan d "count(//p[@k eq 'a'])";
        check Alcotest.string "after" "2" (indexed d "count(//p[@k eq 'a'])"));
    t "replacing text content re-keys the text index" (fun () ->
        let d = session_doc () in
        check Alcotest.string "before" "1" (indexed d "count(//p[n = 'x'])");
        (* element-content replacement is one write: it unlinks the
           old text child and links the new one *)
        apply_update d ~writes:1
          "replace value of node (//p[@id = 'p1'])/n with 'w'";
        match_scan d "count(//p[n = 'x'])";
        match_scan d "count(//p[n = 'w'])";
        check Alcotest.string "old text gone" "0"
          (indexed d "count(//p[n = 'x'])");
        check Alcotest.string "new text found" "1"
          (indexed d "count(//p[n = 'w'])"));
  ]

let suite =
  differential_properties @ counter_tests @ semantics_tests
  @ invalidation_tests
