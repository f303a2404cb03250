(* Lists the exception handlers in OCaml sources that catch every
   exception, a [_] case of [try … with] or an [exception _] case of a
   [match], and exits with 1 if it finds one. A [_] case of a [match]
   over a value is not a handler and passes.
   Usage: catch_all.exe FILE.ml... *)

open Parsetree

let rec any p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) -> any p
  | Ppat_or (a, b) -> any a || any b
  | _ -> false

let rec any_exception p =
  match p.ppat_desc with
  | Ppat_exception p -> any p
  | Ppat_alias (p, _) -> any_exception p
  | Ppat_or (a, b) -> any_exception a || any_exception b
  | _ -> false

let check found file =
  let ic = open_in_bin file in
  let lexbuf = Lexing.from_channel ic in
  Location.init lexbuf file;
  let ast = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Parse.implementation lexbuf) in
  let report (c : case) =
    incr found;
    Printf.printf "%s:%d: this handler catches every exception\n" file
      c.pc_lhs.ppat_loc.loc_start.pos_lnum
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_try (_, cases) -> List.iter (fun c -> if any c.pc_lhs then report c) cases
    | Pexp_match (_, cases) -> List.iter (fun c -> if any_exception c.pc_lhs then report c) cases
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
