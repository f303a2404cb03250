(* Soak: long runs keep the live heap bounded. Each leg does the same
   work 1x and 10x over in one process and compares the live words
   after a full major collection; a table that grows with the names a
   process reads (the retired global name table did) fails it. *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let within_bound ~what short long =
  if float_of_int long > 1.2 *. float_of_int short then
    Alcotest.failf "%s: %d live words after the long run, %d after the short one (bound 1.2x)"
      what long short

(* [step i] for i = 1 … [short], then on to [long] *)
let soak ~what ~short ~long step =
  for i = 1 to short do
    step i
  done;
  let after_short = live_words () in
  for i = short + 1 to long do
    step i
  done;
  within_bound ~what after_short (live_words ())

(* a page of 25 elements, each with a fresh element name and a fresh
   attribute name *)
let fresh_names_page i =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<html><body>";
  for j = 1 to 25 do
    Printf.bprintf buf {|<e%dx%d a%dx%d="%d"/>|} i j i j j
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

(* Ordered by what a table growing with names would leak, least first,
   so that each leg would fail on its own growth, not an earlier leg's. *)
let suite =
  [
    Alcotest.test_case "computed names: 100 000 after 10 000" `Quick (fun () ->
        let build n =
          Xdm_item.to_display_string
            (Xquery.Engine.eval_string
               (Printf.sprintf
                  "count(for $i in 1 to %d return element {concat('e', $i)} {})" n))
        in
        Alcotest.(check string) "built" "10000" (build 10_000);
        let short = live_words () in
        Alcotest.(check string) "built" "100000" (build 100_000);
        within_bound ~what:"computed names" short (live_words ()));
    Alcotest.test_case "10 000 events of a listener building fresh names" `Quick (fun () ->
        let b = Xqib.Browser.create () in
        Xqib.Page.load b
          {|<html><head><script type="text/xquery">
            declare function local:w($evt, $obj) {
              count(for $i in 1 to 10 return element {concat('e', $obj/@n, 'x', $i)} {})
            };
            on event "onclick" at //button attach listener local:w
            </script></head><body><button id="b" n="0"/></body></html>|};
        let button = Option.get (Dom.get_element_by_id (Xqib.Browser.document b) "b") in
        let n = Xmlb.Qname.make "n" in
        let invocations = Dom_event.invocation_count () in
        soak ~what:"listener events" ~short:1_000 ~long:10_000 (fun i ->
            Dom.set_attribute button n (string_of_int i);
            Xqib.Browser.dispatch b ~target:button "onclick");
        Alcotest.(check int)
          "the listener ran on every event" 10_000
          (Dom_event.invocation_count () - invocations));
    Alcotest.test_case "10 000 page loads of fresh names into one tab" `Quick (fun () ->
        let b = Xqib.Browser.create () in
        soak ~what:"page loads" ~short:1_000 ~long:10_000 (fun i ->
            Xqib.Page.load b (fresh_names_page i)));
  ]
