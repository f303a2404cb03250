open Xmlb
module A = Xdm_atomic
module I = Xdm_item

type impl = Call_ctx.t -> I.sequence list -> I.sequence

type entry = { min_arity : int; max_arity : int; impl : impl }

(* Keyed by (uri, local part): a lookup builds the pair from the call
   site's name, no "{uri}local" string. *)
let table : (string * string, entry list) Hashtbl.t = Hashtbl.create 128
let catalog_entries : (string * string * int * int) list ref = ref []

let register ~uri ~local ~min_arity ~max_arity impl =
  let key = (uri, local) in
  let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
  Hashtbl.replace table key ({ min_arity; max_arity; impl } :: existing);
  catalog_entries := (uri, local, min_arity, max_arity) :: !catalog_entries

let find qn ~arity =
  match qn.Qname.uri with
  | None -> None
  | Some uri ->
      Option.bind (Hashtbl.find_opt table (uri, qn.Qname.local)) (fun entries ->
          List.find_opt
            (fun e ->
              arity >= e.min_arity && (e.max_arity < 0 || arity <= e.max_arity))
            entries)
      |> Option.map (fun e -> e.impl)

let catalog () = !catalog_entries

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let err code fmt = Xq_error.raise_error code fmt
let arg n args = List.nth args n
let arg_opt n args = if List.length args > n then Some (List.nth args n) else None

(* the positions fn:subsequence keeps, [from, upto), from its start and
   optional length arguments (round-to-nearest bounds; NaN keeps none) *)
let subsequence_window start len =
  let num v = I.item_number (I.Atomic (I.singleton_atomic v)) in
  let from = Float.floor (num start +. 0.5) in
  let len = match len with Some l -> num l | None -> Float.infinity in
  (from, if len = Float.infinity then Float.infinity else from +. Float.floor (len +. 0.5))

(* zero-or-one string; empty sequence -> None *)
let opt_string seq = I.opt_string seq

let req_string seq = Option.value ~default:"" (opt_string seq)

let opt_num seq =
  match I.opt_atomic seq with
  | None -> None
  | Some a -> (
      match a with
      | A.Integer _ | A.Decimal _ | A.Double _ -> Some a
      | A.Untyped s -> Some (A.cast ~target:A.T_double (A.Untyped s))
      | a ->
          err Xq_error.type_error_code "expected a number, got xs:%s"
            (A.type_name (A.type_of a)))

let num_to_float = function
  | A.Integer i -> float_of_int i
  | A.Decimal f | A.Double f -> f
  | _ -> assert false

let context_node cctx =
  match cctx.Call_ctx.context_item with
  | Some (I.Node n) -> n
  | Some (I.Atomic _) ->
      err Xq_error.type_error_code "the context item is not a node"
  | None -> err "XPDY0002" "the context item is undefined"

let item_or_context cctx args =
  match args with
  | [] -> (
      match cctx.Call_ctx.context_item with
      | Some it -> [ it ]
      | None -> err "XPDY0002" "the context item is undefined")
  | [ seq ] -> seq
  | _ -> assert false

let node_arg_or_context cctx args =
  match item_or_context cctx args with
  | [] -> None
  | [ I.Node n ] -> Some n
  | [ I.Atomic _ ] ->
      err Xq_error.type_error_code "expected a node argument"
  | _ -> err Xq_error.type_error_code "expected at most one node"

let float1 f = [ I.Atomic (A.Double f) ]
let bool1 b = [ I.Atomic (A.Boolean b) ]
let int1 i = [ I.Atomic (A.Integer i) ]
let str1 s = [ I.Atomic (A.String s) ]

(* ---- code-point helpers ----

   fn:string-length counts code points, so every positional string
   function must too (F&O §7.4), or substring(s, string-length(s))
   stops agreeing with itself on multi-byte input. *)

(* Lenient decode: malformed UTF-8 degrades to per-byte code points
   (a Latin-1 reading) instead of raising, so a corrupted string — we
   inject those deliberately via Corrupt_body faults — can never abort
   evaluation from inside a string builtin. *)
let code_points_lenient s =
  try Xml_escape.code_points s
  with Failure _ -> List.init (String.length s) (fun i -> Char.code s.[i])

let string_of_code_points cps =
  let buf = Buffer.create 16 in
  List.iter (fun cp -> Buffer.add_string buf (Xml_escape.utf8_of_code_point cp)) cps;
  Buffer.contents buf

(* One-to-one case mappings for ASCII and the Latin-1 supplement:
   U+00C0–U+00DE ↔ U+00E0–U+00FE differ by 0x20, except U+00D7 (×) and
   U+00F7 (÷) which are caseless; U+00FF (ÿ) uppercases outside the
   block to U+0178 (Ÿ). One-to-many mappings (ß → SS) and the rest of
   Unicode are out of scope — see DESIGN.md. *)
let upper_cp cp =
  if cp >= 0x61 && cp <= 0x7A then cp - 0x20
  else if cp >= 0xE0 && cp <= 0xFE && cp <> 0xF7 then cp - 0x20
  else if cp = 0xFF then 0x178
  else cp

let lower_cp cp =
  if cp >= 0x41 && cp <= 0x5A then cp + 0x20
  else if cp >= 0xC0 && cp <= 0xDE && cp <> 0xD7 then cp + 0x20
  else if cp = 0x178 then 0xFF
  else cp

(* regex: translate XML Schema regex-isms we care about to Str syntax *)
let compile_regex pattern flags =
  let translate p =
    (* convert \d \w \s classes to Str-compatible ranges *)
    let buf = Buffer.create (String.length p) in
    let n = String.length p in
    let rec go i =
      if i >= n then ()
      else if p.[i] = '\\' && i + 1 < n then begin
        (match p.[i + 1] with
        | 'd' -> Buffer.add_string buf "[0-9]"
        | 'D' -> Buffer.add_string buf "[^0-9]"
        | 'w' -> Buffer.add_string buf "[A-Za-z0-9_]"
        | 'W' -> Buffer.add_string buf "[^A-Za-z0-9_]"
        | 's' -> Buffer.add_string buf "[ \t\n\r]"
        | 'S' -> Buffer.add_string buf "[^ \t\n\r]"
        | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        (match p.[i] with
        (* Str uses \( \) \| \{ \} ; XPath uses ( ) | { } *)
        | '(' -> Buffer.add_string buf "\\("
        | ')' -> Buffer.add_string buf "\\)"
        | '|' -> Buffer.add_string buf "\\|"
        | '{' -> Buffer.add_string buf "\\{"
        | '}' -> Buffer.add_string buf "\\}"
        | c -> Buffer.add_char buf c);
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents buf
  in
  let compile = if String.contains flags 'i' then Str.regexp_case_fold else Str.regexp in
  match compile (translate pattern) with
  | re -> re
  | exception Failure m -> err "FORX0002" "invalid regular expression %S: %s" pattern m

(* fn:replace and fn:tokenize cannot make progress on an empty match *)
let compile_nonempty_regex pattern flags =
  let re = compile_regex pattern flags in
  if Str.string_match re "" 0 then
    err "FORX0003" "regular expression %S matches the empty string" pattern;
  re

(* The replacement of fn:replace (F&O 3.1 §5.6.4): [\$] and [\\] are
   a literal [$] and [\]; [$N] takes all the digits after the [$] and
   is the Nth captured group — empty when that group did not take part
   in the match or when N is at most 9 and there are fewer groups; a
   larger N with fewer groups drops its last digit, which stays a
   literal. Any other [$] or [\] is FORX0004. The result is a function
   of the input, called after each match. *)
let replacement r =
  let n = String.length r in
  let invalid () =
    err "FORX0004"
      "invalid replacement string %S: a $ must start a group number and a \\ must escape \\ or $"
      r
  in
  let rec group digits input =
    let d = String.length digits in
    let strip () = group (String.sub digits 0 (d - 1)) input ^ String.sub digits (d - 1) 1 in
    match int_of_string_opt digits with
    | None -> strip () (* past any group count *)
    | Some k -> (
        match Str.matched_group k input with
        | g -> g
        | exception Not_found -> ""
        | exception Invalid_argument _ -> if k <= 9 then "" else strip ())
  in
  let rec parts i lit =
    let flush () = if lit = "" then [] else [ Fun.const lit ] in
    if i >= n then flush ()
    else
      match r.[i] with
      | '\\' when i + 1 < n && (r.[i + 1] = '\\' || r.[i + 1] = '$') ->
          parts (i + 2) (lit ^ String.make 1 r.[i + 1])
      | '\\' -> invalid ()
      | '$' ->
          let j = ref (i + 1) in
          while !j < n && r.[!j] >= '0' && r.[!j] <= '9' do incr j done;
          if !j = i + 1 then invalid ()
          else flush () @ (group (String.sub r (i + 1) (!j - i - 1)) :: parts !j "")
      | c -> parts (i + 1) (lit ^ String.make 1 c)
  in
  let parts = parts 0 "" in
  fun input -> String.concat "" (List.map (fun f -> f input) parts)

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)

let fn ~local ?(min_arity = 1) ?max_arity impl =
  let max_arity = Option.value ~default:min_arity max_arity in
  register ~uri:Qname.Ns.fn ~local ~min_arity ~max_arity impl

let () =
  (* ---------- accessors & general ---------- *)
  fn ~local:"string" ~min_arity:0 ~max_arity:1 (fun cctx args ->
      match item_or_context cctx args with
      | [] -> str1 ""
      | [ it ] -> str1 (I.item_string it)
      | _ -> err Xq_error.type_error_code "fn:string expects at most one item");
  fn ~local:"data" (fun _ args ->
      List.map (fun a -> I.Atomic a) (I.atomize (arg 0 args)));
  fn ~local:"node-name" (fun _ args ->
      match arg 0 args with
      | [] -> []
      | [ I.Node n ] -> (
          (* scoped name read, same rationale as fn:name below *)
          (if Footprint.recording () then
             match (Dom.kind n, Dom.name n) with
             | Dom.Element, Some q ->
                 Footprint.reading_name ~root:(Dom.root_watch n)
                   ~scope:(Dom.id n) q.Qname.local
             | Dom.Attribute, Some q ->
                 Footprint.reading_key ~root:(Dom.root_watch n)
                   ~scope:(Dom.id n) ~local:q.Qname.local
                   (Option.value ~default:"" (Dom.value n))
             | _ -> ());
          match Dom.name n with
          | Some qn -> [ I.Atomic (A.Qname_v qn) ]
          | None -> [])
      | _ -> err Xq_error.type_error_code "fn:node-name expects a node");
  fn ~local:"number" ~min_arity:0 ~max_arity:1 (fun cctx args ->
      match item_or_context cctx args with
      | [] -> float1 Float.nan
      | [ it ] -> float1 (I.item_number it)
      | _ -> float1 Float.nan);
  fn ~local:"trace" ~min_arity:2 (fun cctx args ->
      let v = arg 0 args in
      cctx.Call_ctx.trace (req_string (arg 1 args) ^ " " ^ I.to_display_string v);
      v);
  fn ~local:"error" ~min_arity:0 ~max_arity:3 (fun _ args ->
      let code =
        match arg_opt 0 args with
        | Some [ I.Atomic (A.Qname_v q) ] -> q.Qname.local
        | Some s when s <> [] -> I.sequence_string s
        | _ -> "FOER0000"
      in
      let desc =
        match arg_opt 1 args with Some s -> req_string s | None -> "error raised"
      in
      err code "%s" desc);

  (* ---------- numeric ---------- *)
  (* integers stay exact: [fi] is the function on ints *)
  let unary_numeric local fi f =
    fn ~local (fun _ args ->
        match opt_num (arg 0 args) with
        | None -> []
        | Some (A.Integer i) -> int1 (fi i)
        | Some a -> (
            match a with
            | A.Decimal x -> [ I.Atomic (A.Decimal (f x)) ]
            | A.Double x -> [ I.Atomic (A.Double (f x)) ]
            | _ -> assert false))
  in
  unary_numeric "abs" (fun i -> if i < 0 then A.int_neg i else i) Float.abs;
  unary_numeric "ceiling" Fun.id Float.ceil;
  unary_numeric "floor" Fun.id Float.floor;
  unary_numeric "round" Fun.id (fun x -> Float.floor (x +. 0.5));
  (* [i] rounded half to even at [10^-precision], for a negative
     precision, in int arithmetic *)
  let round_int_half_even i precision =
    if precision > -19 then begin
      let scale = ref 1 in
      for _ = 1 to -precision do
        scale := !scale * 10
      done;
      let scale = !scale in
      let q = i / scale and r = abs (i mod scale) in
      let away = if i < 0 then -1 else 1 in
      let q =
        if 2 * r > scale || (2 * r = scale && q mod 2 <> 0) then q + away else q
      in
      A.int_mul q scale
    end
    else 0
  in
  fn ~local:"round-half-to-even" ~min_arity:1 ~max_arity:2 (fun _ args ->
      match opt_num (arg 0 args) with
      | None -> []
      | Some a ->
          let precision =
            match arg_opt 1 args with
            | Some s -> (
                match I.opt_atomic s with
                | Some (A.Integer i) -> i
                | _ -> 0)
            | None -> 0
          in
          match a with
          | A.Integer i ->
              int1 (if precision >= 0 then i else round_int_half_even i precision)
          | _ ->
          let v = num_to_float a in
          let scale = 10. ** float_of_int precision in
          let x = v *. scale in
          let half_even x =
            let fl = Float.floor x and ce = Float.ceil x in
            if x -. fl < ce -. x then fl
            else if ce -. x < x -. fl then ce
            else if Float.rem fl 2. = 0. then fl
            else ce
          in
          let r =
            (* a precision past the last representable digit leaves the
               value as it is; one above its first digit rounds it to 0 *)
            if scale = 0. then Float.copy_sign 0. v
            else if Float.is_finite x then half_even x /. scale
            else v
          in
          (match a with
          | A.Decimal _ -> [ I.Atomic (A.Decimal r) ]
          | _ -> float1 r));

  (* ---------- strings ---------- *)
  fn ~local:"concat" ~min_arity:2 ~max_arity:(-1) (fun _ args ->
      str1 (String.concat "" (List.map req_string args)));
  fn ~local:"string-join" ~min_arity:2 (fun _ args ->
      let sep = req_string (arg 1 args) in
      str1 (String.concat sep (List.map I.item_string (arg 0 args))));
  fn ~local:"substring" ~min_arity:2 ~max_arity:3 (fun _ args ->
      let s = req_string (arg 0 args) in
      let start = I.item_number (I.Atomic (I.singleton_atomic (arg 1 args))) in
      let len =
        match arg_opt 2 args with
        | Some l -> I.item_number (I.Atomic (I.singleton_atomic l))
        | None -> Float.infinity
      in
      (* XPath 1-based rounding semantics; positions are measured in
         code points, not bytes, to agree with fn:string-length *)
      let from = Float.floor (start +. 0.5) in
      let upto =
        if len = Float.infinity then Float.infinity
        else from +. Float.floor (len +. 0.5)
      in
      let buf = Buffer.create (String.length s) in
      List.iteri
        (fun i cp ->
          let fi = float_of_int (i + 1) in
          if fi >= from && fi < upto then
            Buffer.add_string buf (Xml_escape.utf8_of_code_point cp))
        (code_points_lenient s);
      str1 (Buffer.contents buf));
  fn ~local:"string-length" ~min_arity:0 ~max_arity:1 (fun cctx args ->
      let s =
        match item_or_context cctx args with
        | [] -> ""
        | [ it ] -> I.item_string it
        | _ -> err Xq_error.type_error_code "string-length expects one item"
      in
      int1 (List.length (Xml_escape.code_points s)));
  fn ~local:"normalize-space" ~min_arity:0 ~max_arity:1 (fun cctx args ->
      let s =
        match item_or_context cctx args with
        | [] -> ""
        | [ it ] -> I.item_string it
        | _ -> err Xq_error.type_error_code "normalize-space expects one item"
      in
      let words =
        String.split_on_char ' '
          (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
        |> List.filter (fun w -> w <> "")
      in
      str1 (String.concat " " words));
  fn ~local:"upper-case" (fun _ args ->
      str1
        (string_of_code_points
           (List.map upper_cp (code_points_lenient (req_string (arg 0 args))))));
  fn ~local:"lower-case" (fun _ args ->
      str1
        (string_of_code_points
           (List.map lower_cp (code_points_lenient (req_string (arg 0 args))))));
  fn ~local:"translate" ~min_arity:3 (fun _ args ->
      let s = req_string (arg 0 args) in
      let from = code_points_lenient (req_string (arg 1 args)) in
      let into = Array.of_list (code_points_lenient (req_string (arg 2 args))) in
      (* per-code-point mapping: the first occurrence in $mapString
         wins, and a map entry past the end of $transString deletes *)
      let index_of cp =
        let rec go i = function
          | [] -> None
          | c :: rest -> if c = cp then Some i else go (i + 1) rest
        in
        go 0 from
      in
      let buf = Buffer.create (String.length s) in
      List.iter
        (fun cp ->
          match index_of cp with
          | None -> Buffer.add_string buf (Xml_escape.utf8_of_code_point cp)
          | Some i ->
              if i < Array.length into then
                Buffer.add_string buf (Xml_escape.utf8_of_code_point into.(i)))
        (code_points_lenient s);
      str1 (Buffer.contents buf));
  (* contains / starts-with / ends-with / substring-before/-after scan
     bytes, which is sound for UTF-8: the encoding is self-synchronizing
     (lead and continuation bytes occupy disjoint ranges), so a valid
     needle can only match at a code-point boundary of a valid haystack,
     and the byte offsets sliced at below are therefore boundaries too.
     Only the *positional* functions (substring, translate, string-length)
     need explicit code-point arithmetic. *)
  fn ~local:"contains" ~min_arity:2 (fun _ args ->
      let s = req_string (arg 0 args) and sub = req_string (arg 1 args) in
      let n = String.length s and m = String.length sub in
      let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
      bool1 (m = 0 || scan 0));
  fn ~local:"starts-with" ~min_arity:2 (fun _ args ->
      let s = req_string (arg 0 args) and p = req_string (arg 1 args) in
      bool1 (String.length p <= String.length s && String.sub s 0 (String.length p) = p));
  fn ~local:"ends-with" ~min_arity:2 (fun _ args ->
      let s = req_string (arg 0 args) and p = req_string (arg 1 args) in
      let n = String.length s and m = String.length p in
      bool1 (m <= n && String.sub s (n - m) m = p));
  fn ~local:"substring-before" ~min_arity:2 (fun _ args ->
      let s = req_string (arg 0 args) and sub = req_string (arg 1 args) in
      let n = String.length s and m = String.length sub in
      let rec scan i =
        if i + m > n then None
        else if String.sub s i m = sub then Some i
        else scan (i + 1)
      in
      match (sub, scan 0) with
      | "", _ | _, None -> str1 ""
      | _, Some i -> str1 (String.sub s 0 i));
  fn ~local:"substring-after" ~min_arity:2 (fun _ args ->
      let s = req_string (arg 0 args) and sub = req_string (arg 1 args) in
      let n = String.length s and m = String.length sub in
      let rec scan i =
        if i + m > n then None
        else if String.sub s i m = sub then Some i
        else scan (i + 1)
      in
      match (sub, scan 0) with
      | "", _ -> str1 s
      | _, None -> str1 ""
      | _, Some i -> str1 (String.sub s (i + m) (n - i - m)));
  fn ~local:"compare" ~min_arity:2 ~max_arity:3 (fun _ args ->
      match (opt_string (arg 0 args), opt_string (arg 1 args)) with
      | Some a, Some b -> int1 (compare (String.compare a b) 0)
      | _ -> []);
  fn ~local:"matches" ~min_arity:2 ~max_arity:3 (fun _ args ->
      let s = req_string (arg 0 args) and p = req_string (arg 1 args) in
      let flags = match arg_opt 2 args with Some f -> req_string f | None -> "" in
      let re = compile_regex p flags in
      bool1
        (try
           ignore (Str.search_forward re s 0);
           true
         with Not_found -> false));
  fn ~local:"replace" ~min_arity:3 ~max_arity:4 (fun _ args ->
      let s = req_string (arg 0 args)
      and p = req_string (arg 1 args)
      and r = req_string (arg 2 args) in
      let flags = match arg_opt 3 args with Some f -> req_string f | None -> "" in
      let re = compile_nonempty_regex p flags in
      str1 (Str.global_substitute re (replacement r) s));
  fn ~local:"tokenize" ~min_arity:2 ~max_arity:3 (fun _ args ->
      let s = req_string (arg 0 args) and p = req_string (arg 1 args) in
      let flags = match arg_opt 2 args with Some f -> req_string f | None -> "" in
      let re = compile_nonempty_regex p flags in
      if s = "" then []
      else
        Str.split_delim re s
        |> List.map (fun part -> I.Atomic (A.String part)));
  fn ~local:"codepoints-to-string" (fun _ args ->
      let cps =
        List.map
          (fun it ->
            match I.item_atomic it with
            | A.Integer i -> i
            | a -> (
                match int_of_string_opt (A.to_string a) with
                | Some i -> i
                | None ->
                    err "XPTY0004" "codepoints-to-string: %S is not an integer"
                      (A.to_string a)))
          (arg 0 args)
      in
      List.iter
        (fun cp ->
          if not (Xml_escape.xml_char cp) then
            err "FOCH0001" "codepoints-to-string: %d is not an XML character" cp)
        cps;
      str1 (String.concat "" (List.map Xml_escape.utf8_of_code_point cps)));
  fn ~local:"string-to-codepoints" (fun _ args ->
      match opt_string (arg 0 args) with
      | None | Some "" -> []
      | Some s -> List.map (fun cp -> I.Atomic (A.Integer cp)) (Xml_escape.code_points s));
  fn ~local:"encode-for-uri" (fun _ args ->
      let s = req_string (arg 0 args) in
      let buf = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          match c with
          | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
              Buffer.add_char buf c
          | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
        s;
      str1 (Buffer.contents buf));

  (* ---------- booleans ---------- *)
  fn ~local:"true" ~min_arity:0 ~max_arity:0 (fun _ _ -> bool1 true);
  fn ~local:"false" ~min_arity:0 ~max_arity:0 (fun _ _ -> bool1 false);
  fn ~local:"not" (fun _ args -> bool1 (not (I.effective_boolean (arg 0 args))));
  fn ~local:"boolean" (fun _ args -> bool1 (I.effective_boolean (arg 0 args)));

  (* ---------- sequences ---------- *)
  fn ~local:"empty" (fun _ args -> bool1 (arg 0 args = []));
  fn ~local:"exists" (fun _ args -> bool1 (arg 0 args <> []));
  fn ~local:"count" (fun _ args -> int1 (List.length (arg 0 args)));
  fn ~local:"head" (fun _ args ->
      match arg 0 args with [] -> [] | x :: _ -> [ x ]);
  fn ~local:"tail" (fun _ args ->
      match arg 0 args with [] -> [] | _ :: rest -> rest);
  fn ~local:"reverse" (fun _ args -> List.rev (arg 0 args));
  fn ~local:"insert-before" ~min_arity:3 (fun _ args ->
      let target = arg 0 args in
      let pos =
        match I.singleton_atomic (arg 1 args) with
        | A.Integer i -> max 1 i
        | _ -> err Xq_error.type_error_code "insert-before position must be an integer"
      in
      let inserts = arg 2 args in
      let rec go i = function
        | rest when i = pos -> inserts @ rest
        | [] -> inserts
        | x :: rest -> x :: go (i + 1) rest
      in
      go 1 target);
  fn ~local:"remove" ~min_arity:2 (fun _ args ->
      let pos =
        match I.singleton_atomic (arg 1 args) with
        | A.Integer i -> i
        | _ -> err Xq_error.type_error_code "remove position must be an integer"
      in
      List.filteri (fun i _ -> i + 1 <> pos) (arg 0 args));
  fn ~local:"subsequence" ~min_arity:2 ~max_arity:3 (fun _ args ->
      let seq = arg 0 args in
      let from, upto = subsequence_window (arg 1 args) (arg_opt 2 args) in
      List.filteri
        (fun i _ ->
          let fi = float_of_int (i + 1) in
          fi >= from && fi < upto)
        seq);
  fn ~local:"distinct-values" ~min_arity:1 ~max_arity:2 (fun _ args ->
      (* Hashtable dedup keyed so that [A.same_key a b] implies
         [dv_key a = dv_key b]. same_key partitions values into
         comparison categories — numerics (compared after promotion,
         NaN = NaN), untyped/string/anyURI (compared as strings),
         booleans, QNames, per-constructor date/times, durations —
         with cross-category pairs incomparable, hence distinct.
         Key collisions (huge ints beyond float precision, the coarse
         per-family date/duration buckets) are resolved by a same_key
         scan within the bucket, so semantics are unchanged — only the
         quadratic [List.exists] over all seen values is gone. *)
      let dv_key (a : A.t) =
        match a with
        | A.Integer i ->
            (* distinct big ints can collide on the same float key;
               the bucket's same_key scan (exact Int.compare) resolves *)
            "N:" ^ string_of_float (float_of_int i)
        | A.Decimal f | A.Double f ->
            if Float.is_nan f then "N:nan" else "N:" ^ string_of_float f
        | A.Untyped s | A.String s | A.Any_uri s -> "S:" ^ s
        | A.Boolean b -> if b then "B:1" else "B:0"
        | A.Qname_v q ->
            (* names in other namespaces share the bucket; same_key
               tells them apart *)
            "Q:" ^ q.Qname.local
        | A.Date _ -> "D:date"
        | A.Time _ -> "D:time"
        | A.Date_time _ -> "D:date-time"
        | A.Duration _ | A.Year_month_duration _ | A.Day_time_duration _ ->
            "DUR"
      in
      let atoms = I.atomize (arg 0 args) in
      let seen : (string, A.t list) Hashtbl.t = Hashtbl.create 64 in
      let out =
        List.filter
          (fun a ->
            let k = dv_key a in
            let bucket =
              Option.value ~default:[] (Hashtbl.find_opt seen k)
            in
            if List.exists (fun b -> A.same_key a b) bucket then false
            else begin
              Hashtbl.replace seen k (a :: bucket);
              true
            end)
          atoms
      in
      List.map (fun a -> I.Atomic a) out);
  fn ~local:"index-of" ~min_arity:2 ~max_arity:3 (fun _ args ->
      (* 1-based positions of the items matching the search value *)
      let atoms = I.atomize (arg 0 args) in
      let target = I.singleton_atomic (arg 1 args) in
      let _, hits =
        List.fold_left
          (fun (i, acc) a ->
            if A.same_key a target then (i + 1, I.Atomic (A.Integer i) :: acc)
            else (i + 1, acc))
          (1, []) atoms
      in
      List.rev hits);
  fn ~local:"deep-equal" ~min_arity:2 ~max_arity:3 (fun _ args ->
      let rec node_eq a b =
        Dom.kind a = Dom.kind b
        && Option.equal Qname.equal (Dom.name a) (Dom.name b)
        && (match Dom.kind a with
           | Dom.Element ->
               let attrs n =
                 Dom.attributes n
                 |> List.filter_map (fun x ->
                        match (Dom.name x, Dom.value x) with
                        | Some nm, Some v -> Some (Qname.to_clark nm, v)
                        | _ -> None)
                 |> List.sort compare
               in
               attrs a = attrs b
               && List.length (Dom.children a) = List.length (Dom.children b)
               && List.for_all2 node_eq (Dom.children a) (Dom.children b)
           | Dom.Document ->
               List.length (Dom.children a) = List.length (Dom.children b)
               && List.for_all2 node_eq (Dom.children a) (Dom.children b)
           | _ -> Dom.value a = Dom.value b)
      in
      let item_eq x y =
        match (x, y) with
        | I.Atomic a, I.Atomic b -> A.same_key a b
        | I.Node a, I.Node b -> node_eq a b
        | _ -> false
      in
      let a = arg 0 args and b = arg 1 args in
      bool1 (List.length a = List.length b && List.for_all2 item_eq a b));
  fn ~local:"zero-or-one" (fun _ args ->
      match arg 0 args with
      | [] | [ _ ] -> arg 0 args
      | _ -> err "FORG0003" "zero-or-one called with more than one item");
  fn ~local:"one-or-more" (fun _ args ->
      match arg 0 args with
      | [] -> err "FORG0004" "one-or-more called with an empty sequence"
      | s -> s);
  fn ~local:"exactly-one" (fun _ args ->
      match arg 0 args with
      | [ _ ] -> arg 0 args
      | _ -> err "FORG0005" "exactly-one requires exactly one item");
  fn ~local:"unordered" (fun _ args -> arg 0 args);

  (* ---------- aggregates ---------- *)
  fn ~local:"sum" ~min_arity:1 ~max_arity:2 (fun _ args ->
      let atoms = I.atomize (arg 0 args) in
      match atoms with
      | [] -> (
          match arg_opt 1 args with
          | Some z -> z
          | None -> int1 0)
      | first :: rest ->
          [ I.Atomic (List.fold_left A.add first rest) ]);
  fn ~local:"avg" (fun _ args ->
      match I.atomize (arg 0 args) with
      | [] -> []
      | first :: rest as all ->
          let total = List.fold_left A.add first rest in
          [ I.Atomic (A.divide total (A.Integer (List.length all))) ]);
  (* fn:max and fn:min (F&O 3.1 §14.4.3-4) fold over the items: an
     untypedAtomic value compares as an xs:double, and a NaN, once
     seen, is the result; every value is still compared, so values that
     do not compare raise wherever the NaN stands *)
  let extremum local better =
    let value it =
      match I.item_atomic it with
      | A.Untyped _ as u -> A.cast ~target:A.T_double u
      | a -> a
    in
    let is_double = function A.Double _ -> true | _ -> false in
    (* F&O 3.1 §14.4.3: the result has the values' common numeric type,
       which an xs:double among them makes xs:double *)
    let rec fold acc double = function
      | [] -> (
          match acc with
          | (A.Integer _ | A.Decimal _) when double -> A.cast ~target:A.T_double acc
          | _ -> acc)
      | it :: rest ->
          let a = value it in
          let c = A.compare_value a acc in
          fold
            (if A.is_nan acc then acc else if A.is_nan a || better c then a else acc)
            (double || is_double a) rest
    in
    fn ~local ~min_arity:1 ~max_arity:2 (fun _ args ->
        match arg 0 args with
        | [] -> []
        | first :: rest ->
            let a = value first in
            [ I.Atomic (fold a (is_double a) rest) ])
  in
  extremum "max" (fun c -> c > 0);
  extremum "min" (fun c -> c < 0);

  (* ---------- nodes ---------- *)
  (* A name read is invisible to the navigation-step recording (renaming
     a node changes fn:name without touching any probed index key), so
     record it here, scoped to the node itself: rename notifies on the
     renamed node, whose write chain therefore contains this scope. *)
  let record_name_read n =
    if Footprint.recording () then begin
      let root = Dom.root_watch n in
      match (Dom.kind n, Dom.name n) with
      | Dom.Element, Some q ->
          Footprint.reading_name ~root ~scope:(Dom.id n) q.Qname.local
      | Dom.Attribute, Some q ->
          Footprint.reading_key ~root ~scope:(Dom.id n) ~local:q.Qname.local
            (Option.value ~default:"" (Dom.value n))
      | _ -> ()
    end
  in
  let name_fn local extract =
    fn ~local ~min_arity:0 ~max_arity:1 (fun cctx args ->
        match
          match args with
          | [] -> Some (context_node cctx)
          | _ -> node_arg_or_context cctx args
        with
        | None -> str1 ""
        | Some n ->
            record_name_read n;
            str1 (extract n))
  in
  name_fn "name" (fun n ->
      match Dom.name n with Some q -> Qname.to_string q | None -> "");
  name_fn "local-name" (fun n ->
      match Dom.name n with Some q -> q.Qname.local | None -> "");
  name_fn "namespace-uri" (fun n ->
      match Dom.name n with
      | Some { Qname.uri = Some u; _ } -> u
      | _ -> "");
  fn ~local:"root" ~min_arity:0 ~max_arity:1 (fun cctx args ->
      match
        match args with [] -> Some (context_node cctx) | _ -> node_arg_or_context cctx args
      with
      | None -> []
      | Some n -> [ I.Node (Dom.root n) ]);
  (* XPDY0002: position() and last() are errors when the focus is
     undefined (the call context then carries no context item) *)
  fn ~local:"position" ~min_arity:0 ~max_arity:0 (fun cctx _ ->
      match cctx.Call_ctx.context_item with
      | None -> err "XPDY0002" "fn:position: the context item is undefined"
      | Some _ -> int1 cctx.Call_ctx.position);
  fn ~local:"last" ~min_arity:0 ~max_arity:0 (fun cctx _ ->
      match cctx.Call_ctx.context_item with
      | None -> err "XPDY0002" "fn:last: the context item is undefined"
      | Some _ -> int1 cctx.Call_ctx.size);
  fn ~local:"id" ~min_arity:1 ~max_arity:2 (fun cctx args ->
      let root =
        match arg_opt 1 args with
        | Some s -> Dom.root (I.singleton_node s)
        | None -> Dom.root (context_node cctx)
      in
      let ids =
        List.concat_map
          (fun it -> String.split_on_char ' ' (I.item_string it))
          (arg 0 args)
        |> List.filter (fun s -> s <> "")
      in
      List.filter_map (fun idv -> Dom.get_element_by_id root idv) ids
      |> List.map (fun n -> I.Node n));

  (* ---------- QNames ---------- *)
  fn ~local:"QName" ~min_arity:2 (fun _ args ->
      let uri = opt_string (arg 0 args) in
      let name = req_string (arg 1 args) in
      let qn = Qname.of_string name in
      [ I.Atomic (A.Qname_v (Qname.with_uri qn uri)) ]);
  fn ~local:"local-name-from-QName" (fun _ args ->
      match I.opt_atomic (arg 0 args) with
      | None -> []
      | Some (A.Qname_v q) -> str1 q.Qname.local
      | Some _ -> err Xq_error.type_error_code "expected an xs:QName");
  fn ~local:"namespace-uri-from-QName" (fun _ args ->
      match I.opt_atomic (arg 0 args) with
      | None -> []
      | Some (A.Qname_v q) -> str1 (Option.value ~default:"" q.Qname.uri)
      | Some _ -> err Xq_error.type_error_code "expected an xs:QName");

  fn ~local:"prefix-from-QName" (fun _ args ->
      match I.opt_atomic (arg 0 args) with
      | None -> []
      | Some (A.Qname_v { Qname.prefix = Some p; _ }) -> str1 p
      | Some (A.Qname_v _) -> []
      | Some _ -> err Xq_error.type_error_code "expected an xs:QName");
  fn ~local:"resolve-uri" ~min_arity:1 ~max_arity:2 (fun _ args ->
      match opt_string (arg 0 args) with
      | None -> []
      | Some relative ->
          let base =
            match arg_opt 1 args with Some b -> req_string b | None -> ""
          in
          let absolute =
            if
              String.length relative >= 7
              && (String.sub relative 0 7 = "http://"
                 || (String.length relative >= 8 && String.sub relative 0 8 = "https://"))
            then relative
            else if base = "" then relative
            else if String.length relative > 0 && relative.[0] = '/' then
              (* authority-relative *)
              match
                String.index_from_opt base
                  (min (String.length base - 1) 8)
                  '/'
              with
              | Some i -> String.sub base 0 i ^ relative
              | None -> base ^ relative
            else begin
              (* path-relative: resolve against the base's directory *)
              match String.rindex_opt base '/' with
              | Some i -> String.sub base 0 (i + 1) ^ relative
              | None -> base ^ "/" ^ relative
            end
          in
          [ I.Atomic (A.Any_uri absolute) ]);
  fn ~local:"base-uri" ~min_arity:0 ~max_arity:1 (fun cctx args ->
      match
        match args with
        | [] -> Some (context_node cctx)
        | _ -> node_arg_or_context cctx args
      with
      | None -> []
      | Some n -> (
          match Dom.document_uri (Dom.root n) with
          | Some u -> [ I.Atomic (A.Any_uri u) ]
          | None -> []));
  fn ~local:"document-uri" (fun _ args ->
      match arg 0 args with
      | [] -> []
      | [ I.Node n ] -> (
          match Dom.document_uri n with
          | Some u -> [ I.Atomic (A.Any_uri u) ]
          | None -> [])
      | _ -> err Xq_error.type_error_code "fn:document-uri expects a node");
  fn ~local:"lang" ~min_arity:1 ~max_arity:2 (fun cctx args ->
      let node =
        match arg_opt 1 args with
        | Some s -> I.singleton_node s
        | None -> context_node cctx
      in
      let wanted = String.lowercase_ascii (req_string (arg 0 args)) in
      let rec find n =
        match Dom.attribute n (Qname.make ~uri:Qname.Ns.xml ~prefix:"xml" "lang") with
        | Some v ->
            let v = String.lowercase_ascii v in
            v = wanted
            || String.length v > String.length wanted
               && String.sub v 0 (String.length wanted) = wanted
               && v.[String.length wanted] = '-'
        | None -> (
            match Dom.parent n with Some p -> find p | None -> false)
      in
      bool1 (find node));
  fn ~local:"nilled" (fun _ args ->
      match arg 0 args with
      | [ I.Node n ] when Dom.kind n = Dom.Element -> bool1 false
      | _ -> []);

  (* ---------- dates & times ---------- *)
  fn ~local:"current-dateTime" ~min_arity:0 ~max_arity:0 (fun cctx _ ->
      [ I.Atomic (A.Date_time (cctx.Call_ctx.now ())) ]);
  fn ~local:"current-date" ~min_arity:0 ~max_arity:0 (fun cctx _ ->
      let t = cctx.Call_ctx.now () in
      [ I.Atomic (A.Date { t with Xdm_datetime.hour = 0; minute = 0; second = 0. }) ]);
  fn ~local:"current-time" ~min_arity:0 ~max_arity:0 (fun cctx _ ->
      let t = cctx.Call_ctx.now () in
      [ I.Atomic (A.Time t) ]);
  let dt_component local target_types extract =
    fn ~local (fun _ args ->
        match I.opt_atomic (arg 0 args) with
        | None -> []
        | Some a ->
            let ok = List.mem (A.type_of a) target_types in
            if not ok then
              err Xq_error.type_error_code "%s applied to xs:%s" local
                (A.type_name (A.type_of a))
            else extract a)
  in
  let date_like = [ A.T_date; A.T_date_time ] in
  let time_like = [ A.T_time; A.T_date_time ] in
  let dur_like = [ A.T_duration; A.T_year_month_duration; A.T_day_time_duration ] in
  let dtv = function
    | A.Date d | A.Time d | A.Date_time d -> d
    | _ -> assert false
  in
  let durv = function
    | A.Duration d | A.Year_month_duration d | A.Day_time_duration d -> d
    | _ -> assert false
  in
  dt_component "year-from-date" date_like (fun a -> int1 (dtv a).Xdm_datetime.year);
  dt_component "month-from-date" date_like (fun a -> int1 (dtv a).Xdm_datetime.month);
  dt_component "day-from-date" date_like (fun a -> int1 (dtv a).Xdm_datetime.day);
  dt_component "year-from-dateTime" date_like (fun a -> int1 (dtv a).Xdm_datetime.year);
  dt_component "month-from-dateTime" date_like (fun a -> int1 (dtv a).Xdm_datetime.month);
  dt_component "day-from-dateTime" date_like (fun a -> int1 (dtv a).Xdm_datetime.day);
  dt_component "hours-from-dateTime" time_like (fun a -> int1 (dtv a).Xdm_datetime.hour);
  dt_component "minutes-from-dateTime" time_like (fun a -> int1 (dtv a).Xdm_datetime.minute);
  dt_component "seconds-from-dateTime" time_like (fun a ->
      [ I.Atomic (A.Decimal (dtv a).Xdm_datetime.second) ]);
  dt_component "hours-from-time" time_like (fun a -> int1 (dtv a).Xdm_datetime.hour);
  dt_component "minutes-from-time" time_like (fun a -> int1 (dtv a).Xdm_datetime.minute);
  dt_component "seconds-from-time" time_like (fun a ->
      [ I.Atomic (A.Decimal (dtv a).Xdm_datetime.second) ]);
  dt_component "years-from-duration" dur_like (fun a ->
      int1 ((durv a).Xdm_duration.months / 12));
  dt_component "months-from-duration" dur_like (fun a ->
      int1 ((durv a).Xdm_duration.months mod 12));
  dt_component "days-from-duration" dur_like (fun a ->
      int1 (int_of_float ((durv a).Xdm_duration.seconds /. 86400.)));
  dt_component "hours-from-duration" dur_like (fun a ->
      int1 (int_of_float (Float.rem ((durv a).Xdm_duration.seconds /. 3600.) 24.)));
  dt_component "minutes-from-duration" dur_like (fun a ->
      int1 (int_of_float (Float.rem ((durv a).Xdm_duration.seconds /. 60.) 60.)));
  dt_component "seconds-from-duration" dur_like (fun a ->
      [ I.Atomic (A.Decimal (Float.rem (durv a).Xdm_duration.seconds 60.)) ]);

  fn ~local:"dateTime" ~min_arity:2 (fun _ args ->
      match (I.opt_atomic (arg 0 args), I.opt_atomic (arg 1 args)) with
      | Some (A.Date d), Some (A.Time t) ->
          [
            I.Atomic
              (A.Date_time
                 {
                   d with
                   Xdm_datetime.hour = t.Xdm_datetime.hour;
                   minute = t.Xdm_datetime.minute;
                   second = t.Xdm_datetime.second;
                   tz_minutes =
                     (match d.Xdm_datetime.tz_minutes with
                     | Some _ as tz -> tz
                     | None -> t.Xdm_datetime.tz_minutes);
                 });
          ]
      | None, _ | _, None -> []
      | _ -> err Xq_error.type_error_code "fn:dateTime expects a date and a time");
  fn ~local:"implicit-timezone" ~min_arity:0 ~max_arity:0 (fun _ _ ->
      [ I.Atomic (A.Day_time_duration (Xdm_duration.make ~seconds:0. ())) ]);
  let tz_from local selector =
    fn ~local (fun _ args ->
        match I.opt_atomic (arg 0 args) with
        | None -> []
        | Some a -> (
            match selector a with
            | Some (Some tz) ->
                [
                  I.Atomic
                    (A.Day_time_duration
                       (Xdm_duration.make ~seconds:(float_of_int tz *. 60.) ()));
                ]
            | Some None -> []
            | None ->
                err Xq_error.type_error_code "%s: wrong argument type" local))
  in
  let dt_tz = function
    | A.Date d | A.Time d | A.Date_time d -> Some d.Xdm_datetime.tz_minutes
    | _ -> None
  in
  tz_from "timezone-from-date" dt_tz;
  tz_from "timezone-from-time" dt_tz;
  tz_from "timezone-from-dateTime" dt_tz;
  let adjust local rebuild =
    fn ~local ~min_arity:1 ~max_arity:2 (fun _ args ->
        match I.opt_atomic (arg 0 args) with
        | None -> []
        | Some a -> (
            let target_tz =
              match arg_opt 1 args with
              | None -> Some 0 (* implicit timezone: UTC *)
              | Some s -> (
                  match I.opt_atomic s with
                  | None -> None
                  | Some (A.Day_time_duration d | A.Duration d) ->
                      Some (int_of_float (d.Xdm_duration.seconds /. 60.))
                  | Some _ ->
                      err Xq_error.type_error_code
                        "%s: timezone must be a dayTimeDuration" local)
            in
            match a with
            | A.Date d | A.Time d | A.Date_time d -> (
                match target_tz with
                | None -> [ I.Atomic (rebuild { d with Xdm_datetime.tz_minutes = None }) ]
                | Some tz ->
                    let adjusted =
                      match d.Xdm_datetime.tz_minutes with
                      | None -> { d with Xdm_datetime.tz_minutes = Some tz }
                      | Some _ ->
                          Xdm_datetime.of_epoch_seconds ~tz_minutes:tz
                            (Xdm_datetime.to_epoch_seconds d)
                    in
                    [ I.Atomic (rebuild adjusted) ])
            | _ -> err Xq_error.type_error_code "%s: wrong argument type" local))
  in
  adjust "adjust-dateTime-to-timezone" (fun d -> A.Date_time d);
  adjust "adjust-date-to-timezone" (fun d ->
      A.Date { d with Xdm_datetime.hour = 0; minute = 0; second = 0. });
  adjust "adjust-time-to-timezone" (fun d -> A.Time d);

  (* ---------- documents ---------- *)
  fn ~local:"doc" (fun cctx args ->
      match opt_string (arg 0 args) with
      | None -> []
      | Some uri -> [ I.Node (cctx.Call_ctx.doc uri) ]);
  fn ~local:"doc-available" (fun cctx args ->
      match opt_string (arg 0 args) with
      | None -> bool1 false
      | Some uri -> bool1 (cctx.Call_ctx.doc_available uri));
  fn ~local:"serialize" (fun _ args ->
      str1
        (String.concat ""
           (List.map
              (function
                | I.Node n -> Dom.serialize n
                | I.Atomic a -> A.to_string a)
              (arg 0 args))));
  fn ~local:"parse-xml" (fun _ args ->
      match opt_string (arg 0 args) with
      | None -> []
      | Some src -> (
          match Dom.of_string src with
          | doc -> [ I.Node doc ]
          | exception Xml_parser.Parse_error _ ->
              err "FODC0006" "fn:parse-xml: input is not well-formed XML"));
  fn ~local:"put" ~min_arity:2 (fun cctx args ->
      match (arg 0 args, opt_string (arg 1 args)) with
      | [ I.Node n ], Some uri ->
          cctx.Call_ctx.put n uri;
          []
      | _ -> err Xq_error.type_error_code "fn:put expects a node and a URI");
  ()
