(* Incremental recomputation: footprint-tracked listeners (the reactive
   dispatch layer), batched mutation notifications, XQUF apply order,
   and the incremental/full differential property. *)

open Xquery
module I = Xdm_item
module B = Xqib.Browser
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

let qt ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

let load_page ?(browser = B.create ()) html =
  Xqib.Page.load browser html;
  browser

let run b src = Xqib.Page.run_xquery b b.B.top_window src
let run_str b src = I.to_display_string (run b src)

let counter name =
  match List.assoc_opt name (Reactive.counter_stats ()) with
  | Some v -> v
  | None -> Alcotest.failf "no reactive counter %S" name

module Ablation = Xmlb.Ablation

(* ------------------------------------------------------------------ *)
(* Batched mutation notifications (one changeset per Pul.apply)        *)

let batching_tests =
  [
    t "with_batch delivers queued notifications in order at close" (fun () ->
        let doc =
          Dom.of_string "<d><e1/><e2/></d>"
        in
        let seen = ref [] in
        let obs =
          Dom.observe ~root:doc (fun m ->
              let local n =
                match Dom.name n with Some q -> q.Xmlb.Qname.local | None -> "?"
              in
              let tag =
                match m with
                | Dom.Children_changed n -> "children:" ^ local n
                | Dom.Attribute_changed (n, _) -> "attr:" ^ local n
                | Dom.Value_changed n -> "value:" ^ local n
                | Dom.Renamed n -> "renamed:" ^ local n
              in
              seen := tag :: !seen)
        in
        let e1 = List.hd (Dom.get_elements_by_local_name doc "e1") in
        let e2 = List.hd (Dom.get_elements_by_local_name doc "e2") in
        Dom.with_batch (fun () ->
            Dom.append_child ~parent:e1 (Dom.create_text "x");
            check (Alcotest.list Alcotest.string) "queued, not delivered" []
              (List.rev !seen);
            Dom.append_child ~parent:e2 (Dom.create_text "y"));
        Dom.unobserve obs;
        check (Alcotest.list Alcotest.string) "delivered in mutation order"
          [ "children:e1"; "children:e2" ]
          (List.rev !seen));
    t "observers see one coherent post-apply changeset" (fun () ->
        (* by the time the FIRST notification of a multi-primitive PUL
           arrives, every primitive of that snapshot is already applied *)
        let b = load_page {|<html><body><d><e><gone/></e></d></body></html>|} in
        let doc = B.document b in
        let states = ref [] in
        let obs =
          Dom.observe ~root:doc (fun _ ->
              states :=
                ( List.length (Dom.get_elements_by_local_name doc "a"),
                  List.length (Dom.get_elements_by_local_name doc "gone") )
                :: !states)
        in
        ignore (run b {|(delete node //gone, insert node <a/> into //d)|});
        Dom.unobserve obs;
        check Alcotest.bool "got notifications" true (!states <> []);
        List.iter
          (fun (a, gone) ->
            check Alcotest.int "insert visible" 1 a;
            check Alcotest.int "delete visible" 0 gone)
          !states);
    t "notification count and order are pinned per snapshot" (fun () ->
        (* two inserts + one delete in one snapshot: exactly three
           notifications; XQUF order puts the phase-0 inserts before the
           phase-4 delete even though the delete is listed first *)
        let b =
          load_page {|<html><body><d/><e><gone/></e></body></html>|}
        in
        let doc = B.document b in
        let seen = ref [] in
        let obs =
          Dom.observe ~root:doc (fun m ->
              match m with
              | Dom.Children_changed n ->
                  let local =
                    match Dom.name n with
                    | Some q -> q.Xmlb.Qname.local
                    | None -> "?"
                  in
                  seen := local :: !seen
              | _ -> ())
        in
        ignore
          (run b
             {|(delete node //gone, insert node <a/> into //d, insert node <b/> into //d)|});
        Dom.unobserve obs;
        check (Alcotest.list Alcotest.string) "inserts first, delete last"
          [ "d"; "d"; "e" ]
          (List.rev !seen));
  ]

(* ------------------------------------------------------------------ *)
(* XQUF §3.2.2 apply order                                             *)

let xquf_order_tests =
  [
    t "insert into applies before replace value of element" (fun () ->
        (* replaceElementContent (phase 3) runs after insertInto
           (phase 0): the inserted node is discarded with the rest of
           the old content, per XQUF §3.2.2 *)
        let b = load_page {|<html><body><d>old</d></body></html>|} in
        ignore
          (run b
             {|(insert node <kid/> into //d, replace value of node //d with "gone")|});
        check Alcotest.string "content replaced" "gone" (run_str b "string(//d)");
        check Alcotest.string "insert discarded" "0" (run_str b "count(//kid)"));
    t "delete applies after positional insert" (fun () ->
        (* insertBefore (phase 1) sees the target still in place; the
           delete (phase 4) removes it afterwards *)
        let b = load_page {|<html><body><d><gone/></d></body></html>|} in
        ignore
          (run b {|(delete node //gone, insert node <kid/> before //gone)|});
        check Alcotest.string "kid survives" "1" (run_str b "count(//d/kid)");
        check Alcotest.string "gone deleted" "0" (run_str b "count(//gone)"));
    t "replace node applies after positional insert" (fun () ->
        let b = load_page {|<html><body><d><old/></d></body></html>|} in
        ignore
          (run b
             {|(replace node //old with <new/>, insert node <kid/> before //old)|});
        check Alcotest.string "both placed" "kid,new"
          (run_str b {|string-join(//d/*/local-name(), ",")|}));
    t "an update rejected with XUDY0021 leaves nothing pending" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare function local:w($evt, $obj) { count($obj//item) };
              on event "onclick" at //div attach listener local:w
              </script></head>
              <body><div id="r1"><item/></div><div id="r2"/></body></html>|}
        in
        let set = {|insert node attribute m {'1'} into //div[@id = "r1"]|} in
        ignore (run b set);
        (match run b set with
        | exception Xq_error.Error e -> check Alcotest.string "code" "XUDY0021" e.Xq_error.code
        | _ -> Alcotest.fail "expected XUDY0021");
        ignore (run b {|insert node <x/> into //div[@id = "r2"]|});
        B.dispatch b ~target:(Option.get (Dom.get_element_by_id (B.document b) "r1")) "onclick";
        check Alcotest.string "one m, one x" "1 1"
          (run_str b {|concat(count(//div[@id = "r1"]/@m), " ", count(//x))|}));
  ]

(* ------------------------------------------------------------------ *)
(* Reactive skip/invalidation behaviour                                *)

let two_region_page =
  {|<html><head><script type="text/xquery">
    declare function local:watch($evt, $obj) { count($obj//item) };
    on event "onclick" at //div attach listener local:watch
    </script></head>
    <body><div id="r1"><item/><item/></div><div id="r2"><item/></div></body></html>|}

let skip_tests =
  [
    t "repeat dispatch with no mutation is skipped" (fun () ->
        let b = load_page two_region_page in
        let doc = B.document b in
        let r1 = Option.get (Dom.get_element_by_id doc "r1") in
        Reactive.reset_counters ();
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "first run recorded" 1 (counter "reruns");
        B.dispatch b ~target:r1 "onclick";
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "later runs skipped" 2 (counter "skips");
        check Alcotest.int "no extra reruns" 1 (counter "reruns"));
    t "mutation outside the footprint keeps the skip" (fun () ->
        let b = load_page two_region_page in
        let doc = B.document b in
        let r1 = Option.get (Dom.get_element_by_id doc "r1") in
        Reactive.reset_counters ();
        B.dispatch b ~target:r1 "onclick";
        ignore (run b {|insert node <item/> into //div[@id='r2']|});
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "r2 write does not dirty r1" 1 (counter "skips");
        check Alcotest.int "r1 ran once" 1 (counter "reruns"));
    t "mutation inside the footprint forces a re-run" (fun () ->
        let b = load_page two_region_page in
        let doc = B.document b in
        let r1 = Option.get (Dom.get_element_by_id doc "r1") in
        Reactive.reset_counters ();
        B.dispatch b ~target:r1 "onclick";
        ignore (run b {|insert node <item/> into //div[@id='r1']|});
        check Alcotest.bool "memo invalidated" true
          (counter "invalidations" >= 1);
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "re-ran" 2 (counter "reruns");
        check Alcotest.int "no skip" 0 (counter "skips");
        (* correctness: the re-run sees the new item *)
        check Alcotest.string "count" "3"
          (run_str b {|count(//div[@id='r1']//item)|}));
    t "rename in the footprint invalidates"
      (fun () ->
        let b = load_page two_region_page in
        let doc = B.document b in
        let r1 = Option.get (Dom.get_element_by_id doc "r1") in
        Reactive.reset_counters ();
        B.dispatch b ~target:r1 "onclick";
        (* renaming an item changes what //item finds... *)
        ignore (run b {|rename node (//div[@id='r1']/item)[1] as 'other'|});
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "re-ran after rename" 2 (counter "reruns");
        (* a repeat dispatch pays the recording back with a skip (so
           the adaptive bypass keeps recording)... *)
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "skipped" 1 (counter "skips");
        (* ...and renaming something //item never matched still
           re-runs: the rename is under the walked subtree *)
        ignore (run b {|rename node //div[@id='r1']/other as 'third'|});
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "re-ran after the second rename" 3 (counter "reruns"));
    t "listener memos intern no data" (fun () ->
        (* a pure listener reading an id and an attribute value that
           change every event: its footprints and the write records key
           those values by string, so the global symbol table stays put *)
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare function local:w($evt, $obj) {
                count(//p[@k eq string($obj/@v)]) + count(id(string($obj/@v)))
              };
              on event "onclick" at //button attach listener local:w
              </script></head><body><button id="b" v="x"/><p k="a"/></body></html>|}
        in
        let btn = Option.get (Dom.get_element_by_id (B.document b) "b") in
        let v = Xmlb.Qname.make "v" in
        let dispatch i =
          Dom.set_attribute btn v (Printf.sprintf "fresh-%d" i);
          B.dispatch b ~target:btn "onclick"
        in
        for i = 1 to 50 do
          dispatch i
        done;
        let before = Xmlb.Sym.size () in
        for i = 51 to 2000 do
          dispatch i
        done;
        check Alcotest.int "symbols added" 0 (Xmlb.Sym.size () - before));
    t "updating listeners poison and always re-run" (fun () ->
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:w($evt, $obj) {
                insert node <hit/> into $obj
              };
              on event "onclick" at //div attach listener local:w
              </script></head><body><div id="r1"/></body></html>|}
        in
        let doc = B.document b in
        let r1 = Option.get (Dom.get_element_by_id doc "r1") in
        Reactive.reset_counters ();
        B.dispatch b ~target:r1 "onclick";
        B.dispatch b ~target:r1 "onclick";
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "every dispatch hit" 3
          (List.length (Dom.get_elements_by_local_name doc "hit"));
        check Alcotest.int "never skipped" 0 (counter "skips");
        check Alcotest.bool "poison latched" true
          (counter "poisoned-runs" >= 1));
    t "an update that inserts nothing keeps the skip" (fun () ->
        (* its primitive is there for the check of the target only *)
        let b =
          load_page
            {|<html><head><script type="text/xquery">
              declare updating function local:w($evt, $obj) {
                insert nodes $obj/none into $obj
              };
              on event "onclick" at //div attach listener local:w
              </script></head><body><div id="r1"/></body></html>|}
        in
        let r1 = Option.get (Dom.get_element_by_id (B.document b) "r1") in
        Reactive.reset_counters ();
        B.dispatch b ~target:r1 "onclick";
        B.dispatch b ~target:r1 "onclick";
        check Alcotest.int "skipped" 1 (counter "skips"));
    t "--no-incremental ablation disables skipping" (fun () ->
        Ablation.with_ { Ablation.current with incremental = false } (fun () ->
            let b = load_page two_region_page in
            let doc = B.document b in
            let r1 = Option.get (Dom.get_element_by_id doc "r1") in
            Reactive.reset_counters ();
            B.dispatch b ~target:r1 "onclick";
            B.dispatch b ~target:r1 "onclick";
            check Alcotest.int "no skips" 0 (counter "skips");
            check Alcotest.int "every dispatch ran" 2 (counter "reruns")));
    t "stats() exposes the reactive element" (fun () ->
        let b = load_page two_region_page in
        check Alcotest.string "enabled" "true"
          (run_str b {|string(browser:stats()/@incremental-enabled)|});
        check Alcotest.string "listeners tracked" "true"
          (run_str b
             {|string(number(browser:stats()/reactive/@listeners) >= 1)|}));
  ]

(* ------------------------------------------------------------------ *)
(* Listener churn: registrations must not leak memos                   *)

(* Live heap words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let churn_page =
  {|<html><head><script type="text/xquery">
    declare function local:w($evt, $obj) { count($obj//item) };
    </script></head><body><div id="r1"/></body></html>|}

let churn_tests =
  [
    t "attach/detach churn leaves the node's listeners and the heap flat"
      (fun () ->
        let b = load_page churn_page in
        let div = Option.get (Dom.get_element_by_id (B.document b) "r1") in
        let base = Dom_event.listener_count div in
        ignore (run b {|on event "onclick" at //div attach listener local:w|});
        check Alcotest.int "attach registers" (base + 1)
          (Dom_event.listener_count div);
        ignore (run b {|on event "onclick" at //div detach listener local:w|});
        check Alcotest.int "detach drops" base (Dom_event.listener_count div);
        (* each cycle also dispatches, so its memo records and
           registers a footprint before the detach drops it *)
        let cycle () =
          ignore (run b {|on event "onclick" at //div attach listener local:w|});
          B.dispatch b ~target:div "onclick";
          B.dispatch b ~target:div "onclick";
          ignore (run b {|on event "onclick" at //div detach listener local:w|})
        in
        for _ = 1 to 100 do
          cycle ()
        done;
        let before = live_words () in
        Reactive.reset_counters ();
        for _ = 1 to 1000 do
          cycle ()
        done;
        let grown = live_words () - before in
        check Alcotest.int "no leak across churn" base
          (Dom_event.listener_count div);
        check Alcotest.int "every memo recorded, then skipped" 1000
          (counter "skips");
        if grown > 16_384 then
          Alcotest.failf "live heap grew by %d words over 1000 cycles" grown);
    t "same-name replacement drops the old registration" (fun () ->
        let b = load_page churn_page in
        let div = Option.get (Dom.get_element_by_id (B.document b) "r1") in
        let base = Dom_event.listener_count div in
        for _ = 1 to 20 do
          ignore
            (run b {|on event "onclick" at //div attach listener local:w|})
        done;
        (* one live registration: each re-attach replaced the last *)
        check Alcotest.int "replacement is not a leak" (base + 1)
          (Dom_event.listener_count div);
        ignore (run b {|on event "onclick" at //div detach listener local:w|});
        check Alcotest.int "drained" base (Dom_event.listener_count div));
  ]

(* ------------------------------------------------------------------ *)
(* Differential property: incremental ≡ full re-evaluation             *)

(* A scenario: a page of regions, random listeners (pure, conditionally
   updating, always updating), and a random stream of mutations
   interleaved with event dispatches. Whatever the configuration —
   incremental on or off, production (compiled) or the reference
   evaluator — the final document and hit counts must agree. *)

type listener_kind = L_pure_count | L_pure_sum | L_cond_write | L_always_write

type mutation_op =
  | M_insert_item of int
  | M_delete_item of int
  | M_rename_val of int
  | M_set_attr of int * int
  | M_replace_text of int * int

type scenario = {
  regions : int;
  listeners : listener_kind list;  (* all attached at every region div *)
  ops : (mutation_op * int list) list;
      (* mutation, then regions to dispatch to *)
}

let listener_body i = function
  | L_pure_count ->
      Printf.sprintf
        "declare function local:l%d($evt, $obj) { count($obj//item) };" i
  | L_pure_sum ->
      Printf.sprintf
        "declare function local:l%d($evt, $obj) { sum($obj//val) };" i
  | L_cond_write ->
      Printf.sprintf
        "declare updating function local:l%d($evt, $obj) { if \
         (count($obj//item) > 2) then insert node <over/> into $obj else () \
         };"
        i
  | L_always_write ->
      Printf.sprintf
        "declare updating function local:l%d($evt, $obj) { insert node \
         <hit/> into $obj };"
        i

let scenario_page s =
  let decls =
    String.concat "\n" (List.mapi listener_body s.listeners)
  in
  let attaches =
    String.concat "\n"
      (List.mapi
         (fun i _ ->
           Printf.sprintf
             {|on event "go" at //div attach listener local:l%d|} i)
         s.listeners)
  in
  let regions =
    String.concat ""
      (List.init s.regions (fun r ->
           Printf.sprintf
             {|<div id="r%d"><val>%d</val><item n="a"/><item n="b"/></div>|} r
             (r + 1)))
  in
  Printf.sprintf
    {|<html><head><script type="text/xquery">%s
      { %s }</script></head><body>%s</body></html>|}
    decls attaches regions

let op_stmt s = function
  | M_insert_item r ->
      Printf.sprintf {|insert node <item n="new"/> into //div[@id='r%d']|}
        (r mod s.regions)
  | M_delete_item r ->
      Printf.sprintf {|delete node (//div[@id='r%d']/item)[1]|}
        (r mod s.regions)
  | M_rename_val r ->
      Printf.sprintf {|rename node (//div[@id='r%d']/val)[1] as 'val2'|}
        (r mod s.regions)
  | M_set_attr (r, v) ->
      Printf.sprintf
        {|insert node attribute m {'%d'} into //div[@id='r%d']|} v
        (r mod s.regions)
  | M_replace_text (r, v) ->
      Printf.sprintf {|replace value of node (//div[@id='r%d']/val)[1] with '%d'|}
        (r mod s.regions) v

let run_scenario ~incremental ~compiled s =
  Ablation.with_ { Ablation.current with incremental; compiled_eval = compiled } (fun () ->
      let b = load_page (scenario_page s) in
      let doc = B.document b in
      let region r =
        Option.get
          (Dom.get_element_by_id doc (Printf.sprintf "r%d" (r mod s.regions)))
      in
      (* warm every memo *)
      for r = 0 to s.regions - 1 do
        B.dispatch b ~target:(region r) "go"
      done;
      List.iter
        (fun (op, dispatches) ->
          (match run b (op_stmt s op) with
          | _ -> ()
          | exception Xq_error.Error _ ->
              (* e.g. deleting from an emptied region: fine, both the
                 incremental and the full run see the same error *)
              ());
          List.iter (fun r -> B.dispatch b ~target:(region r) "go") dispatches)
        s.ops;
      Dom.serialize doc)

let scenario_gen =
  Q.Gen.(
    let kind =
      oneofl [ L_pure_count; L_pure_sum; L_cond_write; L_always_write ]
    in
    let op =
      oneof
        [
          map (fun r -> M_insert_item r) (int_bound 3);
          map (fun r -> M_delete_item r) (int_bound 3);
          map (fun r -> M_rename_val r) (int_bound 3);
          map2 (fun r v -> M_set_attr (r, v)) (int_bound 3) (int_bound 9);
          map2 (fun r v -> M_replace_text (r, v)) (int_bound 3) (int_bound 9);
        ]
    in
    let step = pair op (list_size (int_bound 3) (int_bound 3)) in
    map3
      (fun regions listeners ops ->
        { regions = 2 + regions; listeners; ops })
      (int_bound 2)
      (list_size (int_range 1 3) kind)
      (list_size (int_range 1 6) step))

let scenario_print s =
  Printf.sprintf "{regions=%d; listeners=%d; ops=%d}" s.regions
    (List.length s.listeners) (List.length s.ops)

let scenario_arb = Q.make ~print:scenario_print scenario_gen

let differential_tests =
  [
    qt ~count:20 "incremental == full across engine configs" scenario_arb
      (fun s ->
        let oracle =
          run_scenario ~incremental:false ~compiled:true s
        in
        List.for_all
          (fun (incremental, compiled) ->
            let got = run_scenario ~incremental ~compiled s in
            if String.equal got oracle then true
            else
              Q.Test.fail_reportf
                "config {inc=%b; compiled=%b} diverged:\n\
                 oracle: %s\n\
                 got:    %s"
                incremental compiled oracle got)
          [ (true, true); (true, false); (false, false) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Render memo                                                         *)

let render_tests =
  [
    t "render_cached returns the plain rendering and memoizes" (fun () ->
        let b = load_page {|<html><body><p>hello world</p></body></html>|} in
        let doc = B.document b in
        let plain = Xqib.Renderer.render doc in
        let text () = Xqib.Renderer.text (B.render b) in
        check Alcotest.string "first" plain (text ());
        check Alcotest.string "memo hit" plain (text ());
        ignore (run b {|insert node <p>more</p> into //body|});
        let plain2 = Xqib.Renderer.render doc in
        check Alcotest.bool "render changed" true (plain <> plain2);
        check Alcotest.string "after mutation" plain2 (text ()));
  ]

let suite =
  batching_tests @ xquf_order_tests @ skip_tests @ churn_tests
  @ differential_tests @ render_tests
