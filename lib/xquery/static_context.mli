(** The XQuery static context: in-scope namespaces, declared functions
    and variables, options, module resolution, and host restrictions
    (e.g. the browser blocking [fn:doc]/[fn:put], paper §4.2.1). *)

open Xmlb

type external_function =
  Call_ctx.t -> Xdm_item.sequence list -> Xdm_item.sequence

type module_resolution =
  | Module_source of string  (** XQuery library module source text *)
  | Module_external of (Qname.t * int * external_function) list
      (** e.g. a Web-service stub: name, arity, implementation *)
  | Module_not_found

type t

val create : unit -> t

(** {1 Namespaces} *)

val ns_env : t -> Qname.Env.t
val declare_namespace : t -> prefix:string -> uri:string -> unit
val declare_default_element_ns : t -> string -> unit
val declare_default_function_ns : t -> string -> unit
val default_function_ns : t -> string

(** {1 Declarations} *)

val declare_function : t -> Ast.function_decl -> unit
val find_function : t -> Qname.t -> arity:int -> Ast.function_decl option
val declared_functions : t -> Ast.function_decl list

(** Declare a global variable: a variable already declared is replaced
    where it stands (so the evaluation order is kept), a new one is
    appended. *)
val declare_variable : t -> Qname.t -> Ast.seq_type option -> Ast.expr option -> unit

val global_variables : t -> (Qname.t * Ast.seq_type option * Ast.expr option) list
val set_option : t -> Qname.t -> string -> unit
val set_boundary_space_preserve : t -> bool -> unit
val boundary_space_preserve : t -> bool

(** {1 External functions} *)

val register_external : t -> Qname.t -> arity:int -> external_function -> unit
val find_external : t -> Qname.t -> arity:int -> external_function option

(** {1 Function blocking (browser security)} *)

val block_function : t -> uri:string -> local:string -> unit
val is_blocked : t -> Qname.t -> bool

(** Track imported module URIs to avoid duplicate imports. *)

val mark_imported : t -> string -> unit
val is_imported : t -> string -> bool

(** {1 Module resolution} *)

val set_module_resolver :
  t -> (uri:string -> locations:string list -> module_resolution) -> unit

val resolve_module : t -> uri:string -> locations:string list -> module_resolution

(** {1 Fingerprint}

    A digest of every compilation-relevant piece of the context:
    namespaces, defaults, declared functions and variables (including
    their ASTs), external-function {e keys}, options, blocked
    functions and imported module URIs. Two contexts with equal
    fingerprints compile a given source to the same program, except
    that module resolvers and external implementations are compared by
    registration key only. The query cache keys on this. *)
val fingerprint : t -> string
