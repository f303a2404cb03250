(* Code-point conformance of the string builtins on multi-byte UTF-8,
   plus the PUL conflict-survival contract.

   fn:string-length has always counted code points; this suite pins the
   positional functions (substring, translate, upper/lower-case) to the
   same unit so they agree with it on non-ASCII input. *)

open Xquery
module I = Xdm_item
module Q = QCheck

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f
let run_str src = I.to_display_string (Engine.eval_string src)
let eq name expected src = t name (fun () -> check Alcotest.string src expected (run_str src))

let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

(* ---------- unit cases: multi-byte positional semantics ---------- *)

let substring_tests =
  [
    (* the PR's acceptance example: é is 2 bytes, 1 code point *)
    eq "substring over multi-byte" "\xc3\xa9ll" "substring('h\xc3\xa9llo', 2, 3)";
    eq "substring from multi-byte offset" "llo" "substring('h\xc3\xa9llo', 3)";
    eq "substring length of euro" "1" "string-length(substring('a\xe2\x82\xacb', 2, 1))";
    eq "substring picks the euro" "\xe2\x82\xac" "substring('a\xe2\x82\xacb', 2, 1)";
    (* 4-byte (astral) code points count as one position too *)
    eq "substring over astral plane" "\xf0\x9f\x98\x80b"
      "substring('a\xf0\x9f\x98\x80b', 2, 2)";
    eq "substring agrees with string-length" "true"
      "let $s := 'h\xc3\xa9ll\xc3\xb6' return substring($s, 1, string-length($s)) = $s";
  ]

let translate_case_tests =
  [
    eq "translate multi-byte map" "hello" "translate('h\xc3\xa9llo', '\xc3\xa9', 'e')";
    eq "translate multi-byte removal" "hllo" "translate('h\xc3\xa9llo', '\xc3\xa9', '')";
    eq "translate into multi-byte" "h\xc3\xa9llo" "translate('hello', 'e', '\xc3\xa9')";
    eq "translate first mapping wins" "b" "translate('a', 'aa', 'bc')";
    eq "upper-case Latin-1" "H\xc3\x89LLO" "upper-case('h\xc3\xa9llo')";
    eq "lower-case Latin-1" "h\xc3\xa9llo" "lower-case('H\xc3\x89LLO')";
    (* ÿ uppercases outside Latin-1, to U+0178 *)
    eq "upper-case y-diaeresis" "\xc5\xb8" "upper-case('\xc3\xbf')";
    eq "lower-case Y-diaeresis" "\xc3\xbf" "lower-case('\xc5\xb8')";
    (* × and ÷ sit inside the letter ranges but are caseless *)
    eq "multiplication sign is caseless" "\xc3\x97" "upper-case('\xc3\x97')";
    eq "division sign is caseless" "\xc3\xb7" "lower-case('\xc3\xb7')";
    (* one-to-many mappings are out of scope: ß stays ß *)
    eq "sharp-s unchanged" "stra\xc3\x9fe" "lower-case(upper-case('stra\xc3\x9fe'))";
    eq "case mapping preserves length" "true"
      "let $s := 'Stra\xc3\x9fe \xc3\xbf \xc3\x97' \
       return string-length(upper-case($s)) = string-length($s)";
  ]

(* byte-scanning functions stay code-point-correct (self-synchronization) *)
let scan_tests =
  [
    eq "substring-before multi-byte" "h" "substring-before('h\xc3\xa9llo', '\xc3\xa9')";
    eq "substring-after multi-byte" "llo" "substring-after('h\xc3\xa9llo', '\xc3\xa9')";
    eq "contains multi-byte" "true" "contains('h\xc3\xa9llo', '\xc3\xa9ll')";
    (* a continuation byte alone must not match inside a character *)
    eq "no mid-character match" "false" "contains('\xc3\xa9', codepoints-to-string(169))";
  ]

(* ---------- properties over generated UTF-8 ---------- *)

(* code points drawn from every encoding width; avoids NUL, surrogates
   and non-characters by construction *)
let cp_gen =
  Q.Gen.(
    frequency
      [
        (5, int_range 0x20 0x7E) (* ASCII *);
        (3, int_range 0xA1 0xFF) (* Latin-1 supplement *);
        (2, int_range 0x100 0x2FF) (* 2-byte, beyond Latin-1 *);
        (2, int_range 0x1000 0x4000) (* 3-byte *);
        (1, int_range 0x10000 0x10FFF) (* 4-byte, astral *);
      ])

let cps_gen = Q.make Q.Gen.(list_size (int_range 0 12) cp_gen)

(* build the string inside the query via codepoints-to-string, so the
   generated text needs no source-level escaping *)
let literal_of_cps cps =
  Printf.sprintf "codepoints-to-string((%s))"
    (String.concat "," (List.map string_of_int cps))

let eval_bool src =
  match Engine.eval_string src with
  | [ Xdm_item.Atomic (Xdm_atomic.Boolean b) ] -> b
  | other -> Alcotest.failf "%s: expected a boolean, got %s" src (I.to_display_string other)

let property_tests =
  [
    qt "string-length(substring(s,1,n)) <= n"
      (Q.pair cps_gen Q.(int_range 0 15))
      (fun (cps, n) ->
        eval_bool
          (Printf.sprintf "string-length(substring(%s, 1, %d)) le %d"
             (literal_of_cps cps) n n));
    qt "substring(s,1,string-length(s)) round-trips" cps_gen (fun cps ->
        eval_bool
          (Printf.sprintf "let $s := %s return substring($s, 1, string-length($s)) = $s"
             (literal_of_cps cps)));
    qt "case mapping is length-preserving" cps_gen (fun cps ->
        eval_bool
          (Printf.sprintf
             "let $s := %s return string-length(upper-case($s)) = string-length($s) \
              and string-length(lower-case($s)) = string-length($s)"
             (literal_of_cps cps)));
    qt "ASCII upper-case agrees with translate"
      (Q.make
         Q.Gen.(
           map
             (fun cs -> String.concat "" (List.map (String.make 1) cs))
             (list_size (int_bound 15)
                (map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25)))))
      (fun s ->
        let letters = String.init 26 (fun i -> Char.chr (Char.code 'a' + i)) in
        let upper = String.uppercase_ascii letters in
        eval_bool
          (Printf.sprintf "upper-case('%s') = translate('%s', '%s', '%s')" s s letters
             upper));
  ]

(* ---------- PUL conflict survival ---------- *)

let pul_tests =
  [
    t "conflicting PUL raises and is discarded" (fun () ->
        let doc = Dom.of_string "<r><a/></r>" in
        let a = List.hd (Dom.get_elements_by_local_name doc "a") in
        let pul = Pul.create () in
        Pul.add pul (Pul.Rename (a, Xmlb.Qname.make "x"));
        Pul.add pul (Pul.Rename (a, Xmlb.Qname.make "y"));
        (match Pul.apply pul with
        | exception Xq_error.Error e ->
            check Alcotest.string "conflict code" "XUDY0015" e.Xq_error.code
        | () -> Alcotest.fail "conflicting PUL applied without error");
        (* the failed apply applies nothing and discards the list, so
           a later apply on the same context does not meet it again *)
        check Alcotest.int "pending updates discarded" 0 (Pul.length pul);
        check Alcotest.string "document untouched" "<r><a/></r>" (Dom.serialize doc));
    t "successful apply clears the list" (fun () ->
        let doc = Dom.of_string "<r/>" in
        let r = List.hd (Dom.children doc) in
        let pul = Pul.create () in
        Pul.add pul (Pul.Insert_into (r, [ Dom.create_element (Xmlb.Qname.make "a") ]));
        Pul.apply pul;
        check Alcotest.bool "emptied" true (Pul.is_empty pul);
        check Alcotest.string "applied" "<r><a/></r>" (Dom.serialize doc));
  ]

let suite =
  substring_tests @ translate_case_tests @ scan_tests @ property_tests @ pul_tests
