open Xmlb

type external_function =
  Call_ctx.t -> Xdm_item.sequence list -> Xdm_item.sequence

type module_resolution =
  | Module_source of string
  | Module_external of (Qname.t * int * external_function) list
  | Module_not_found

type t = {
  mutable ns : Qname.Env.t;
  mutable default_fun_ns : string;
  mutable boundary_space : bool;
  functions : (int * int * int, Ast.function_decl) Hashtbl.t;
  externals : (int * int * int, external_function) Hashtbl.t;
  mutable variables : (Qname.t * Ast.seq_type option * Ast.expr option) list;
  mutable options : (Qname.t * string) list;
  mutable blocked : (string * string) list;
  mutable imported : string list;
  mutable resolver : uri:string -> locations:string list -> module_resolution;
}

let create () =
  {
    ns = Qname.Env.initial;
    default_fun_ns = Qname.Ns.fn;
    boundary_space = false;
    functions = Hashtbl.create 16;
    externals = Hashtbl.create 16;
    variables = [];
    options = [];
    blocked = [];
    imported = [];
    resolver = (fun ~uri:_ ~locations:_ -> Module_not_found);
  }

let ns_env t = t.ns
let declare_namespace t ~prefix ~uri = t.ns <- Qname.Env.bind t.ns ~prefix ~uri

let declare_default_element_ns t uri =
  t.ns <- Qname.Env.bind_default t.ns ~uri:(Some uri)

let declare_default_function_ns t uri = t.default_fun_ns <- uri
let default_function_ns t = t.default_fun_ns

(* Function tables are keyed by (uri sym, local sym, arity) int triples
   built from the Qname's pre-interned symbols — no Clark-string
   allocation per declaration or lookup. *)
let key qn arity = (qn.Qname.usym, (qn.Qname.lsym :> int), arity)

let declare_function t (f : Ast.function_decl) =
  Hashtbl.replace t.functions (key f.Ast.fname (List.length f.Ast.params)) f

let find_function t qn ~arity = Hashtbl.find_opt t.functions (key qn arity)

let declared_functions t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.functions []

let declare_variable t qn st e =
  t.variables <-
    (if List.exists (fun (q, _, _) -> Qname.equal q qn) t.variables then
       List.map (fun ((q, _, _) as v) -> if Qname.equal q qn then (q, st, e) else v) t.variables
     else t.variables @ [ (qn, st, e) ])

let global_variables t = t.variables
let set_option t qn v = t.options <- (qn, v) :: t.options

let set_boundary_space_preserve t b = t.boundary_space <- b
let boundary_space_preserve t = t.boundary_space

let register_external t qn ~arity f = Hashtbl.replace t.externals (key qn arity) f
let find_external t qn ~arity = Hashtbl.find_opt t.externals (key qn arity)

let block_function t ~uri ~local = t.blocked <- (uri, local) :: t.blocked

let is_blocked t qn =
  List.exists
    (fun (uri, local) ->
      Option.equal String.equal (Some uri) qn.Qname.uri
      && String.equal local qn.Qname.local)
    t.blocked

let mark_imported t uri = t.imported <- uri :: t.imported
let is_imported t uri = List.mem uri t.imported
let set_module_resolver t r = t.resolver <- r
let resolve_module t ~uri ~locations = t.resolver ~uri ~locations

(* Everything that can influence compilation is pure data except the
   module resolver (a closure) and the external-function
   implementations; those are represented by their registration keys
   only, so two contexts that register the same names but different
   behaviour fingerprint identically — callers that swap resolvers or
   externals under the same names must invalidate the query cache. *)
let fingerprint t =
  let sorted_keys h =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])
  in
  let functions =
    List.sort compare
      (Hashtbl.fold (fun k f acc -> (k, f) :: acc) t.functions [])
  in
  let payload =
    ( t.ns,
      t.default_fun_ns,
      t.boundary_space,
      functions,
      sorted_keys t.externals,
      t.variables,
      t.options,
      t.blocked,
      t.imported )
  in
  Digest.to_hex (Digest.string (Marshal.to_string payload []))
