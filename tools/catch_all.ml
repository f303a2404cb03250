(* Lists the exception handlers in OCaml sources that catch every
   exception and exits with 1 if it finds one: a [_] case of
   [try … with] or an [exception _] case of a [match], and a case that
   binds every exception to a variable ([with e ->], [exception e ->],
   [_ as e]) unless its body re-raises that variable ([raise e] or
   [Printexc.raise_with_backtrace e _]). A [_] case of a [match] over
   a value is not a handler and passes.
   Usage: catch_all.exe FILE.ml... *)

open Parsetree

(* [Some binder] when [p] matches every value: [Some None] for [_],
   [Some (Some v)] when it binds the value to [v] *)
let rec every p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.txt)
  | Ppat_alias (p, v) -> Option.map (fun _ -> Some v.txt) (every p)
  | Ppat_constraint (p, _) -> every p
  | Ppat_or (a, b) -> ( match every a with Some x -> Some x | None -> every b)
  | _ -> None

let rec every_exception p =
  match p.ppat_desc with
  | Ppat_exception p -> every p
  | Ppat_alias (p, _) -> every_exception p
  | Ppat_or (a, b) -> (
      match every_exception a with Some x -> Some x | None -> every_exception b)
  | _ -> None

(* does [e] contain [raise v] or [Printexc.raise_with_backtrace v _] *)
let reraises v e =
  let found = ref false in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = f; _ }; _ },
          (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) :: _ )
      when x = v ->
        (match Longident.flatten f with
        | [ "raise" ] | [ "Stdlib"; "raise" ] | [ "Printexc"; "raise_with_backtrace" ] ->
            found := true
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let check found file =
  let ic = open_in_bin file in
  let lexbuf = Lexing.from_channel ic in
  Location.init lexbuf file;
  let ast = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Parse.implementation lexbuf) in
  let report (c : case) = function
    | Some binder when not (Option.fold ~none:false ~some:(fun v -> reraises v c.pc_rhs) binder)
      ->
        incr found;
        Printf.printf "%s:%d: this handler catches every exception\n" file
          c.pc_lhs.ppat_loc.loc_start.pos_lnum
    | _ -> ()
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_try (_, cases) -> List.iter (fun c -> report c (every c.pc_lhs)) cases
    | Pexp_match (_, cases) -> List.iter (fun c -> report c (every_exception c.pc_lhs)) cases
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast

let () =
  let found = ref 0 in
  for i = 1 to Array.length Sys.argv - 1 do
    check found Sys.argv.(i)
  done;
  if !found > 0 then exit 1
