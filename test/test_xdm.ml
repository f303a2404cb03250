(* XDM: durations, dates, atomic values, casting, arithmetic, items. *)

module A = Xdm_atomic
module I = Xdm_item

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* [f ()] raises Xq_error.Error with [code] *)
let raises_code code f =
  match f () with
  | exception Xq_error.Error e -> check Alcotest.string "error code" code e.Xq_error.code
  | _ -> Alcotest.failf "expected %s" code

let duration_tests =
  [
    t "parse full duration" (fun () ->
        let d = Xdm_duration.of_string "P1Y2M3DT4H5M6S" in
        check Alcotest.int "months" 14 d.Xdm_duration.months;
        check (Alcotest.float 0.001) "seconds"
          ((3. *. 86400.) +. (4. *. 3600.) +. (5. *. 60.) +. 6.)
          d.Xdm_duration.seconds);
    t "negative duration" (fun () ->
        let d = Xdm_duration.of_string "-PT90S" in
        check (Alcotest.float 0.001) "sec" (-90.) d.Xdm_duration.seconds);
    t "canonical form" (fun () ->
        check Alcotest.string "P3D" "P3D" (Xdm_duration.to_string (Xdm_duration.of_string "PT72H"));
        check Alcotest.string "PT0S" "PT0S" (Xdm_duration.to_string Xdm_duration.zero);
        check Alcotest.string "P1Y2M" "P1Y2M" (Xdm_duration.to_string (Xdm_duration.of_string "P14M")));
    t "round trip through string" (fun () ->
        let d = Xdm_duration.of_string "P2DT3H4M5S" in
        check Alcotest.bool "eq" true
          (Xdm_duration.equal d (Xdm_duration.of_string (Xdm_duration.to_string d))));
    t "add and negate" (fun () ->
        let a = Xdm_duration.of_string "P1D" and b = Xdm_duration.of_string "PT12H" in
        let s = Xdm_duration.add a b in
        check (Alcotest.float 0.001) "1.5 days" (1.5 *. 86400.) s.Xdm_duration.seconds;
        check (Alcotest.float 0.001) "neg" (-.s.Xdm_duration.seconds)
          (Xdm_duration.negate s).Xdm_duration.seconds);
    t "scale" (fun () ->
        let d = Xdm_duration.scale (Xdm_duration.of_string "PT10S") 2.5 in
        check (Alcotest.float 0.001) "25s" 25. d.Xdm_duration.seconds);
    t "malformed fails" (fun () ->
        List.iter
          (fun s ->
            match Xdm_duration.of_string s with
            | exception Failure _ -> ()
            | _ -> Alcotest.failf "%S should fail" s)
          [ ""; "P"; "1Y"; "PT"; "P1H" ]);
  ]

let datetime_tests =
  [
    t "parse date" (fun () ->
        let d = Xdm_datetime.date_of_string "2008-06-09" in
        check Alcotest.int "y" 2008 d.Xdm_datetime.year;
        check Alcotest.int "m" 6 d.Xdm_datetime.month;
        check Alcotest.int "d" 9 d.Xdm_datetime.day);
    t "parse dateTime with timezone" (fun () ->
        let d = Xdm_datetime.date_time_of_string "2008-06-09T14:30:00+02:00" in
        check (Alcotest.option Alcotest.int) "tz" (Some 120) d.Xdm_datetime.tz_minutes);
    t "parse time with fraction" (fun () ->
        let d = Xdm_datetime.time_of_string "01:02:03.5Z" in
        check (Alcotest.float 0.0001) "sec" 3.5 d.Xdm_datetime.second);
    t "print round trip" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.string s s
              (Xdm_datetime.date_time_to_string (Xdm_datetime.date_time_of_string s)))
          [ "2008-06-09T14:30:00"; "1999-12-31T23:59:59Z"; "2020-02-29T00:00:00-05:00" ]);
    t "epoch round trip" (fun () ->
        let d = Xdm_datetime.date_time_of_string "2008-06-09T12:00:00Z" in
        let d2 = Xdm_datetime.of_epoch_seconds ~tz_minutes:0 (Xdm_datetime.to_epoch_seconds d) in
        check Alcotest.bool "equal" true (Xdm_datetime.equal d d2));
    t "timezone affects instant" (fun () ->
        let utc = Xdm_datetime.date_time_of_string "2008-06-09T12:00:00Z" in
        let plus2 = Xdm_datetime.date_time_of_string "2008-06-09T14:00:00+02:00" in
        check Alcotest.int "same instant" 0 (Xdm_datetime.compare utc plus2));
    t "leap years" (fun () ->
        check Alcotest.bool "2000" true (Xdm_datetime.is_leap_year 2000);
        check Alcotest.bool "1900" false (Xdm_datetime.is_leap_year 1900);
        check Alcotest.bool "2008" true (Xdm_datetime.is_leap_year 2008);
        check Alcotest.int "feb 2008" 29 (Xdm_datetime.days_in_month ~year:2008 ~month:2));
    t "add dayTime duration" (fun () ->
        let d = Xdm_datetime.date_of_string "2008-06-09" in
        let d' = Xdm_datetime.add_duration d (Xdm_duration.of_string "P3D") in
        check Alcotest.string "12th" "2008-06-12" (Xdm_datetime.date_to_string d'));
    t "add yearMonth duration with day clamping" (fun () ->
        let d = Xdm_datetime.date_of_string "2008-01-31" in
        let d' = Xdm_datetime.add_duration d (Xdm_duration.of_string "P1M") in
        check Alcotest.string "clamped" "2008-02-29" (Xdm_datetime.date_to_string d'));
    t "difference" (fun () ->
        let a = Xdm_datetime.date_of_string "2008-06-12"
        and b = Xdm_datetime.date_of_string "2008-06-09" in
        check (Alcotest.float 0.001) "3 days" (3. *. 86400.)
          (Xdm_datetime.difference a b).Xdm_duration.seconds);
    t "month boundary arithmetic" (fun () ->
        let d = Xdm_datetime.date_of_string "2008-12-31" in
        let d' = Xdm_datetime.add_duration d (Xdm_duration.of_string "P1D") in
        check Alcotest.string "new year" "2009-01-01" (Xdm_datetime.date_to_string d'));
    t "invalid dates rejected" (fun () ->
        List.iter
          (fun s ->
            match Xdm_datetime.date_of_string s with
            | exception Failure _ -> ()
            | _ -> Alcotest.failf "%S should fail" s)
          [ "2008-13-01"; "2008-02-30"; "2008/01/01"; "garbage" ]);
  ]

let atomic_tests =
  [
    t "canonical strings" (fun () ->
        check Alcotest.string "int" "42" (A.to_string (A.Integer 42));
        check Alcotest.string "true" "true" (A.to_string (A.Boolean true));
        check Alcotest.string "dec" "1.5" (A.to_string (A.Decimal 1.5));
        check Alcotest.string "dbl int" "3" (A.to_string (A.Double 3.));
        check Alcotest.string "NaN" "NaN" (A.to_string (A.Double Float.nan));
        check Alcotest.string "INF" "INF" (A.to_string (A.Double Float.infinity)));
    t "cast string to numerics" (fun () ->
        check Alcotest.bool "int" true (A.cast ~target:A.T_integer (A.String " 7 ") = A.Integer 7);
        check Alcotest.bool "dbl" true (A.cast ~target:A.T_double (A.String "1e3") = A.Double 1000.));
    t "cast boolean lexical space" (fun () ->
        check Alcotest.bool "1" true (A.cast ~target:A.T_boolean (A.String "1") = A.Boolean true);
        check Alcotest.bool "false" true (A.cast ~target:A.T_boolean (A.String "false") = A.Boolean false);
        raises_code "FORG0001" (fun () -> A.cast ~target:A.T_boolean (A.String "yes")));
    t "numeric to boolean" (fun () ->
        check Alcotest.bool "0" true (A.cast ~target:A.T_boolean (A.Integer 0) = A.Boolean false);
        check Alcotest.bool "NaN" true (A.cast ~target:A.T_boolean (A.Double Float.nan) = A.Boolean false));
    t "double to integer truncates" (fun () ->
        check Alcotest.bool "3" true (A.cast ~target:A.T_integer (A.Double 3.9) = A.Integer 3);
        check Alcotest.bool "-3" true (A.cast ~target:A.T_integer (A.Double (-3.9)) = A.Integer (-3)));
    t "INF to integer fails" (fun () ->
        raises_code "FORG0001" (fun () -> A.cast ~target:A.T_integer (A.Double Float.infinity)));
    t "date/dateTime casts" (fun () ->
        let dt = A.cast ~target:A.T_date_time (A.String "2008-06-09T10:00:00") in
        let d = A.cast ~target:A.T_date dt in
        check Alcotest.string "date" "2008-06-09" (A.to_string d));
    t "duration subtype casts" (fun () ->
        let d = A.cast ~target:A.T_year_month_duration (A.String "P1Y2M3DT4H") in
        check Alcotest.string "ym only" "P1Y2M" (A.to_string d));
    t "derives_from" (fun () ->
        check Alcotest.bool "int<:dec" true (A.derives_from A.T_integer A.T_decimal);
        check Alcotest.bool "dec!<:int" false (A.derives_from A.T_decimal A.T_integer);
        check Alcotest.bool "any" true (A.derives_from A.T_string A.T_any_atomic);
        check Alcotest.bool "ymd<:dur" true (A.derives_from A.T_year_month_duration A.T_duration));
    t "castable" (fun () ->
        check Alcotest.bool "yes" true (A.castable ~target:A.T_integer (A.String "5"));
        check Alcotest.bool "no" false (A.castable ~target:A.T_integer (A.String "five")));
    t "promotion" (fun () ->
        match A.promote_pair (A.Integer 1) (A.Double 2.) with
        | A.Double _, A.Double _ -> ()
        | _ -> Alcotest.fail "expected double pair");
    t "untyped promotes to double" (fun () ->
        match A.promote_pair (A.Untyped "2.5") (A.Integer 1) with
        | A.Double 2.5, A.Double 1. -> ()
        | _ -> Alcotest.fail "expected doubles");
    t "compare across numeric types" (fun () ->
        check Alcotest.int "1 < 1.5" (-1) (A.compare_value (A.Integer 1) (A.Decimal 1.5));
        check Alcotest.int "2.0 = 2" 0 (A.compare_value (A.Double 2.) (A.Integer 2)));
    t "string comparison" (fun () ->
        check Alcotest.bool "lt" true (A.compare_value (A.String "abc") (A.String "abd") < 0));
    t "incomparable types raise" (fun () ->
        raises_code "XPTY0004" (fun () -> A.compare_value (A.Integer 1) (A.Boolean true)));
    t "NaN is not equal to NaN (eq)" (fun () ->
        check Alcotest.bool "ne" false (A.equal_value (A.Double Float.nan) (A.Double Float.nan)));
    t "NaN same_key groups" (fun () ->
        check Alcotest.bool "same" true (A.same_key (A.Double Float.nan) (A.Double Float.nan)));
    t "arithmetic basics" (fun () ->
        check Alcotest.bool "add" true (A.add (A.Integer 2) (A.Integer 3) = A.Integer 5);
        check Alcotest.bool "int div is decimal" true (A.divide (A.Integer 1) (A.Integer 2) = A.Decimal 0.5);
        check Alcotest.bool "idiv" true (A.integer_divide (A.Integer 7) (A.Integer 2) = A.Integer 3);
        check Alcotest.bool "mod" true (A.modulo (A.Integer 7) (A.Integer 2) = A.Integer 1));
    t "division by zero" (fun () ->
        raises_code "FOAR0001" (fun () -> A.divide (A.Integer 1) (A.Integer 0)));
    t "double division by zero gives INF" (fun () ->
        check Alcotest.bool "INF" true (A.divide (A.Double 1.) (A.Double 0.) = A.Double Float.infinity));
    t "date minus date is duration" (fun () ->
        let a = A.cast ~target:A.T_date (A.String "2008-06-12") in
        let b = A.cast ~target:A.T_date (A.String "2008-06-09") in
        match A.subtract a b with
        | A.Day_time_duration d ->
            check (Alcotest.float 0.01) "3d" (3. *. 86400.) d.Xdm_duration.seconds
        | _ -> Alcotest.fail "expected dayTimeDuration");
    t "date plus duration" (fun () ->
        let d = A.cast ~target:A.T_date (A.String "2008-06-09") in
        let dur = A.cast ~target:A.T_day_time_duration (A.String "P3D") in
        check Alcotest.string "12th" "2008-06-12" (A.to_string (A.add d dur)));
    t "duration times number" (fun () ->
        let dur = A.cast ~target:A.T_day_time_duration (A.String "PT1H") in
        check Alcotest.string "2h" "PT2H" (A.to_string (A.multiply dur (A.Integer 2))));
    t "negate" (fun () ->
        check Alcotest.bool "-5" true (A.negate (A.Integer 5) = A.Integer (-5)));
  ]

let item_tests =
  [
    t "effective boolean of sequences" (fun () ->
        check Alcotest.bool "empty" false (I.effective_boolean []);
        check Alcotest.bool "string" true (I.effective_boolean (I.of_string "x"));
        check Alcotest.bool "empty string" false (I.effective_boolean (I.of_string ""));
        check Alcotest.bool "zero" false (I.effective_boolean (I.of_int 0));
        check Alcotest.bool "NaN" false (I.effective_boolean (I.of_float Float.nan));
        let node = Dom.create_element (Xmlb.Qname.make "a") in
        check Alcotest.bool "node first" true (I.effective_boolean [ I.Node node; I.Node node ]));
    t "ebv error on multi-atomic" (fun () ->
        raises_code "FORG0006" (fun () -> I.effective_boolean (I.of_int 1 @ I.of_int 2)));
    t "atomization of nodes is untyped" (fun () ->
        let doc = Dom.of_string "<a>42</a>" in
        match I.atomize [ I.Node doc ] with
        | [ A.Untyped "42" ] -> ()
        | _ -> Alcotest.fail "expected untyped 42");
    t "comment atomizes to string" (fun () ->
        let c = Dom.create_comment "note" in
        match I.atomize [ I.Node c ] with
        | [ A.String "note" ] -> ()
        | _ -> Alcotest.fail "expected string");
    t "sequence_string joins with space" (fun () ->
        check Alcotest.string "joined" "1 2 3"
          (I.sequence_string (I.of_int 1 @ I.of_int 2 @ I.of_int 3)));
    t "singleton helpers enforce cardinality" (fun () ->
        raises_code "XPTY0004" (fun () -> I.singleton []);
        raises_code "XPTY0004" (fun () -> I.singleton (I.of_int 1 @ I.of_int 2)));
    t "document_order sorts and dedups" (fun () ->
        let doc = Dom.of_string "<r><a/><b/></r>" in
        let a = List.hd (Dom.get_elements_by_local_name doc "a") in
        let b = List.hd (Dom.get_elements_by_local_name doc "b") in
        let sorted = I.document_order [ I.Node b; I.Node a; I.Node b ] in
        check Alcotest.int "two" 2 (List.length sorted);
        match sorted with
        | [ I.Node first; _ ] -> check Alcotest.bool "a first" true (Dom.equal first a)
        | _ -> Alcotest.fail "bad shape");
    t "union intersect except" (fun () ->
        let doc = Dom.of_string "<r><a/><b/><c/></r>" in
        let get n = I.Node (List.hd (Dom.get_elements_by_local_name doc n)) in
        let ab = [ get "a"; get "b" ] and bc = [ get "b"; get "c" ] in
        check Alcotest.int "union" 3 (List.length (I.union ab bc));
        check Alcotest.int "intersect" 1 (List.length (I.intersect ab bc));
        check Alcotest.int "except" 1 (List.length (I.except ab bc)));
    t "item_number parses or NaN" (fun () ->
        check (Alcotest.float 0.001) "3.5" 3.5 (I.item_number (I.Atomic (A.String "3.5")));
        check Alcotest.bool "NaN" true (Float.is_nan (I.item_number (I.Atomic (A.String "x")))));
  ]

let suite = duration_tests @ datetime_tests @ atomic_tests @ item_tests
