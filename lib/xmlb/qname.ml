type t = { uri : string option; prefix : string option; local : string }

let make ?uri ?prefix local = { uri; prefix; local }

let of_string s =
  match String.index_opt s ':' with
  | None -> make s
  | Some i ->
      let prefix = String.sub s 0 i in
      let local = String.sub s (i + 1) (String.length s - i - 1) in
      make ~prefix local

let with_uri t uri = { t with uri }

(* The local part first: it tells most unequal names apart. *)
let equal a b =
  String.equal a.local b.local
  &&
  match (a.uri, b.uri) with
  | None, None -> true
  | Some u, Some v -> String.equal u v
  | _ -> false

let compare a b =
  match Option.compare String.compare a.uri b.uri with
  | 0 -> String.compare a.local b.local
  | c -> c

let find_duplicate names =
  let rec adjacent = function
    | a :: (b :: _ as rest) -> if equal a b then Some a else adjacent rest
    | _ -> None
  in
  adjacent (List.sort compare names)

let to_string t =
  match t.prefix with
  | Some p when p <> "" -> p ^ ":" ^ t.local
  | _ -> t.local

let to_clark t =
  match t.uri with
  | Some u -> "{" ^ u ^ "}" ^ t.local
  | None -> t.local

let pp ppf t = Format.pp_print_string ppf (to_clark t)

module Ns = struct
  let xml = "http://www.w3.org/XML/1998/namespace"
  let xmlns = "http://www.w3.org/2000/xmlns/"
  let xs = "http://www.w3.org/2001/XMLSchema"
  let fn = "http://www.w3.org/2005/xpath-functions"
  let local = "http://www.w3.org/2005/xquery-local-functions"
  let xhtml = "http://www.w3.org/1999/xhtml"
  let browser = "http://www.example.com/browser"
  let err = "http://www.w3.org/2005/xqt-errors"
end

module Smap = Map.Make (String)

module Env = struct
  type qname = t
  type t = { bindings : string Smap.t; default_ns : string option }

  let empty =
    {
      bindings = Smap.(empty |> add "xml" Ns.xml |> add "xmlns" Ns.xmlns);
      default_ns = None;
    }

  let bind env ~prefix ~uri =
    if prefix = "xml" || prefix = "xmlns" then env
    else { env with bindings = Smap.add prefix uri env.bindings }

  let bind_default env ~uri = { env with default_ns = uri }

  let initial =
    empty
    |> fun e -> bind e ~prefix:"xs" ~uri:Ns.xs
    |> fun e -> bind e ~prefix:"fn" ~uri:Ns.fn
    |> fun e -> bind e ~prefix:"local" ~uri:Ns.local
    |> fun e -> bind e ~prefix:"browser" ~uri:Ns.browser
    |> fun e -> bind e ~prefix:"err" ~uri:Ns.err

  let lookup env prefix = Smap.find_opt prefix env.bindings
  let default env = env.default_ns

  let resolve env ~use_default (qn : qname) =
    match qn.uri with
    | Some _ -> qn
    | None -> (
        match qn.prefix with
        | None -> if use_default then with_uri qn env.default_ns else qn
        | Some p -> (
            match lookup env p with
            | Some uri -> with_uri qn (Some uri)
            | None -> failwith (Printf.sprintf "XPST0081: unbound prefix %S" p)))
end
