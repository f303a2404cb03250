(* XQuery Update Facility: pending update lists, snapshot semantics,
   conflict detection, transform expressions (paper §3.2). *)

open Xquery
module I = Xdm_item

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let run_str src = I.to_display_string (Engine.eval_string src)
let eq name expected src = t name (fun () -> check Alcotest.string src expected (run_str src))

let expect_error code src =
  match Engine.eval_string src with
  | exception Xq_error.Error e -> check Alcotest.string src code e.Xq_error.code
  | r -> Alcotest.failf "%s: expected %s, got %s" src code (I.to_display_string r)

(* run updates against a shared tree and observe the tree afterwards *)
let update_and_show update =
  let src =
    Printf.sprintf
      "let $d := <lib><book title='old'><price>10</price></book></lib> return (%s, $d)"
      update
  in
  run_str src

let insert_tests =
  [
    t "insert into appends" (fun () ->
        check Alcotest.string "insert"
          "<lib><book title=\"old\"><price>10</price></book><book title=\"new\"/></lib>"
          (update_and_show "insert node <book title='new'/> into $d"));
    t "insert as first into" (fun () ->
        check Alcotest.string "first"
          "<lib><book title=\"new\"/><book title=\"old\"><price>10</price></book></lib>"
          (update_and_show "insert node <book title='new'/> as first into $d"));
    t "insert as last into" (fun () ->
        check Alcotest.string "last"
          "<lib><book title=\"old\"><price>10</price></book><z/></lib>"
          (update_and_show "insert node <z/> as last into $d"));
    t "insert before" (fun () ->
        check Alcotest.string "before"
          "<lib><z/><book title=\"old\"><price>10</price></book></lib>"
          (update_and_show "insert node <z/> before $d/book"));
    t "insert after" (fun () ->
        check Alcotest.string "after"
          "<lib><book title=\"old\"><price>10</price></book><z/></lib>"
          (update_and_show "insert node <z/> after $d/book"));
    t "insert several nodes" (fun () ->
        check Alcotest.string "several"
          "<lib><book title=\"old\"><price>10</price></book><a/><b/></lib>"
          (update_and_show "insert nodes (<a/>, <b/>) into $d"));
    t "insert attribute node" (fun () ->
        check Alcotest.string "attr"
          "<lib x=\"1\"><book title=\"old\"><price>10</price></book></lib>"
          (update_and_show "insert node attribute x { 1 } into $d"));
    t "inserted nodes are copies" (fun () ->
        (* the inserted node is a fresh copy: mutating the original
           afterwards must not affect the tree *)
        check Alcotest.string "copy semantics" "<d><n/></d> <n>mut</n>"
          (run_str
             "let $n := <n/> let $d := <d/> return \
              (insert node $n into $d, replace value of node $n with 'mut', $d, $n)"));
    t "paper example: insert book into library (snapshot: invisible inside)" (fun () ->
        check Alcotest.string "starwars"
          "0 <books><book title=\"Starwars\"/></books>"
          (run_str
             "let $lib := <books/> return (insert node <book title=\"Starwars\"/> into $lib, \
              count($lib/book[@title='Starwars']), $lib)"));
    t "insert into non-element fails" (fun () ->
        expect_error "XUTY0005"
          "let $d := <a>t</a> return insert node <b/> into $d/text()");
    t "insert attribute before node fails" (fun () ->
        expect_error "XUTY0005"
          "let $d := <a><b/></a> return insert node attribute x {1} before $d/b");
    t "insert attribute into a document node fails" (fun () ->
        expect_error "XUTY0022"
          "let $d := document { <a/> } return insert node attribute x {1} into $d");
    t "an empty source still checks its target" (fun () ->
        expect_error "XUTY0005" "let $d := <a>t</a> return insert nodes () into $d/text()";
        expect_error "XUDY0029" "insert nodes () before <a/>");
    t "insert before or after an attribute is XUTY0006" (fun () ->
        expect_error "XUTY0006" "let $d := <d x='1'/> return insert node <a/> before $d/@x";
        expect_error "XUTY0006" "let $d := <d x='1'/> return insert node <a/> after $d/@x");
    t "a list the DOM refuses applies nothing" (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            (insert node <new/> into //div, insert node <a/> before //div/@x)
            </script><script type="text/xquery">
            browser:alert(concat(count(//new), ' ', count(//div/a)))
            </script></head><body><div x="1"/></body></html>|};
        check (Alcotest.list Alcotest.string) "the refusal"
          [ "[XUTY0006] the reference node is not a child of the parent" ]
          b.Xqib.Browser.script_errors;
        check (Alcotest.list Alcotest.string) "nothing applied" [ "0 0" ]
          (Xqib.Browser.alerts b));
  ]

let delete_replace_rename_tests =
  [
    t "delete node" (fun () ->
        check Alcotest.string "deleted" "<lib/>"
          (update_and_show "delete node $d/book"));
    t "delete several via path" (fun () ->
        (* count inside the query still sees both (snapshot), the
           returned tree does not *)
        check Alcotest.string "all gone" "2 <r><y/></r>"
          (run_str
             "let $d := <r><x/><x/><y/></r> return (delete nodes $d/x, count($d/x), $d)"));
    t "delete attribute" (fun () ->
        check Alcotest.string "no attr"
          "<lib><book><price>10</price></book></lib>"
          (update_and_show "delete node $d/book/@title"));
    t "replace node" (fun () ->
        check Alcotest.string "replaced"
          "<lib><dvd/></lib>"
          (update_and_show "replace node $d/book with <dvd/>"));
    t "replace value of element (paper price example)" (fun () ->
        check Alcotest.string "1500"
          "<lib><book title=\"old\"><price>1500</price></book></lib>"
          (update_and_show "replace value of node $d/book/price with 1500"));
    t "replace value of attribute" (fun () ->
        check Alcotest.string "attr value"
          "<lib><book title=\"fresh\"><price>10</price></book></lib>"
          (update_and_show "replace value of node $d/book/@title with 'fresh'"));
    t "rename node" (fun () ->
        check Alcotest.string "renamed"
          "<lib><tome title=\"old\"><price>10</price></tome></lib>"
          (update_and_show "rename node $d/book as 'tome'"));
    t "rename attribute" (fun () ->
        check Alcotest.string "renamed attr"
          "<lib><book name=\"old\"><price>10</price></book></lib>"
          (update_and_show "rename node $d/book/@title as 'name'"));
    t "replace attribute with attribute" (fun () ->
        check Alcotest.string "swap"
          "<lib><book x=\"9\"><price>10</price></book></lib>"
          (update_and_show "replace node $d/book/@title with attribute x { 9 }"));
    t "an attribute and a non-attribute do not replace each other" (fun () ->
        expect_error "XUTY0011" "let $d := <d x='1'/> return replace node $d/@x with <a/>";
        expect_error "XUTY0010" "let $d := <d><c/></d> return replace node $d/c with attribute y {1}";
        expect_error "XUDY0009" "replace node <a/> with <b/>");
    t "replace target must be single node" (fun () ->
        expect_error "XUTY0005"
          "let $d := <r><a/><a/></r> return replace node $d/a with <b/>");
    t "rename of a processing instruction sets its target" (fun () ->
        check Alcotest.string "renamed" "<a><?q x?></a>"
          (run_str "let $d := <a><?p x?></a> return (rename node $d/processing-instruction() as 'q', $d)"));
    t "a prefixed new name for a processing instruction is XUDY0025" (fun () ->
        expect_error "XUDY0025"
          "let $d := <a><?p x?></a> return rename node $d/processing-instruction() as 'x:q'");
    t "a page script's PI rename applies with its other updates" (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            (insert node <new/> into //div, rename node //div/processing-instruction() as 'q')
            </script><script type="text/xquery">
            browser:alert(concat(count(//new), ' ', name(//div/processing-instruction())))
            </script></head><body><div><?p x?></div></body></html>|};
        check (Alcotest.list Alcotest.string) "no script error" [] b.Xqib.Browser.script_errors;
        check (Alcotest.list Alcotest.string) "the next script sees both" [ "1 q" ]
          (Xqib.Browser.alerts b));
    t "rename of a text node fails" (fun () ->
        expect_error "XUTY0012" "let $d := <a>t</a> return rename node $d/text() as 'b'");
  ]

let snapshot_tests =
  [
    t "updates invisible until end of query (paper §3.2)" (fun () ->
        check Alcotest.string "count before apply" "0"
          (run_str
             "let $d := <lib/> return (insert node <book/> into $d, count($d/book)) [1] cast as xs:string"));
    t "multiple updates apply together" (fun () ->
        check Alcotest.string "both"
          "<lib><a/><b/></lib>"
          (run_str
             "let $d := <lib/> return (insert node <a/> into $d, insert node <b/> into $d, $d)"));
    t "delete and insert on same tree" (fun () ->
        check Alcotest.string "swap"
          "<r><new/></r>"
          (run_str
             "let $d := <r><old/></r> return (delete node $d/old, insert node <new/> into $d, $d)"));
    t "conflicting renames raise XUDY0015" (fun () ->
        expect_error "XUDY0015"
          "let $d := <r><a/></r> return (rename node $d/a as 'x', rename node $d/a as 'y')");
    t "conflicting replace value raises XUDY0017" (fun () ->
        expect_error "XUDY0017"
          "let $d := <r><a/></r> return (replace value of node $d/a with '1', replace value of node $d/a with '2')");
    t "conflicting replace node raises XUDY0017" (fun () ->
        expect_error "XUDY0017"
          "let $d := <r><a/></r> return (replace node $d/a with <x/>, replace node $d/a with <y/>)");
    t "replaceElementContent applies after inserts (XQUF §3.2.2)" (fun () ->
        (* the insert lands first (phase a), then replace value of the
           element — upd:replaceElementContent, phase d — wipes all
           content including the freshly inserted node *)
        check Alcotest.string "ordering"
          "<r>base</r>"
          (run_str
             "let $d := <r><junk/></r> return (insert node <a/> into $d, replace value of node $d with 'base', $d)"));
    t "updating function used by query" (fun () ->
        check Alcotest.string "fn update"
          "<cart><item n=\"1\"/></cart>"
          (run_str
             "declare updating function local:add($c) { insert node <item n='1'/> into $c }; \
              let $cart := <cart/> return (local:add($cart), $cart)"));
  ]

(* [insert] and [replace] copy a source that names existing nodes and
   link a freshly built one as it is, in both evaluators *)
let source_identity_tests =
  let in_modes = Test_functions.in_modes in
  let both expected src =
    t src (fun () -> in_modes (fun () -> check Alcotest.string src expected (run_str src)))
  in
  [
    both "<d><n/></d> false"
      "let $n := <n/> let $d := <d/> return (insert node $n into $d, $d, exists($n/..))";
    both "<d><r/></d> false"
      "let $r := <r/> let $d := <d><o/></d> return (replace node $d/o with $r, $d, exists($r/..))";
    both "1 <d>xy<e/></d>"
      "declare sequential function local:f() { declare variable $d := <d/>; \
       insert nodes ('x', text{'y'}, <e/>) into $d; (count($d/text()), $d) }; local:f()";
    both "<d><a/><b/><c/><e/></d>"
      "let $d := <d><c/></d> return (insert nodes (<a/>, <b/>) as first into $d, \
       insert node <e/> after $d/c, $d)";
  ]

let transform_tests =
  [
    eq "copy-modify-return leaves source untouched" "old new"
      "let $d := <v>old</v> \
       let $new := copy $c := $d modify replace value of node $c with 'new' return $c \
       return (string($d), string($new))";
    eq "transform with insert" "2"
      "let $d := <r><a/></r> return count((copy $c := $d modify insert node <b/> into $c return $c)/*)";
    eq "transform result is a copy" "false"
      "let $d := <r/> return (copy $c := $d modify () return $c) is $d";
    eq "multiple copy bindings" "x y"
      "let $a := <a>x</a> let $b := <b>y</b> return \
       string-join(copy $c := $a, $e := $b modify () return (string($c), string($e)), ' ')";
  ]

let suite =
  insert_tests @ delete_replace_rename_tests @ snapshot_tests @ source_identity_tests
  @ transform_tests
