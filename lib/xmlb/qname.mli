(** Qualified names and namespace handling (XML Namespaces 1.0).

    A {!t} is an expanded name: an optional namespace URI, an optional
    prefix (kept for serialization fidelity only; equality ignores it)
    and a local part. Names are compared by their strings; nothing is
    interned, so no table grows with the names a process reads. *)

type t = {
  uri : string option;  (** namespace URI, [None] = no namespace *)
  prefix : string option;  (** original prefix, ignored by {!equal} *)
  local : string;
}

val make : ?uri:string -> ?prefix:string -> string -> t

(** [of_string s] splits ["p:local"] into prefix [p] and local part;
    the URI is left unresolved ([None]). *)
val of_string : string -> t

(** The same name in another namespace. *)
val with_uri : t -> string option -> t

(** Equality on expanded name: URI and local part only. *)
val equal : t -> t -> bool

(** Order by URI ([None] first), then local part, both by string. *)
val compare : t -> t -> int

(** A name that occurs twice in the list (by {!equal}), if any; sorts,
    so O(n log n). *)
val find_duplicate : t list -> t option

(** ["p:local"] or ["local"], using the stored prefix. *)
val to_string : t -> string

(** Clark notation ["{uri}local"], canonical for diagnostics. *)
val to_clark : t -> string

val pp : Format.formatter -> t -> unit

(** Well-known namespace URIs. *)
module Ns : sig
  val xml : string
  val xmlns : string
  val xs : string
  val fn : string
  val local : string
  val xhtml : string
  val browser : string

  (** [err] — the XQuery error namespace. *)
  val err : string
end

(** A namespace environment: prefix [->] URI bindings with scoping. *)
module Env : sig
  type qname := t
  type t

  (** Environment with the immutable [xml] and [xmlns] bindings and the
      conventional defaults [xs], [fn], [local], [browser]. *)
  val initial : t

  (** [empty] has only the immutable [xml]/[xmlns] bindings. *)
  val empty : t

  val bind : t -> prefix:string -> uri:string -> t
  val bind_default : t -> uri:string option -> t
  val lookup : t -> string -> string option
  val default : t -> string option

  (** Resolve a parsed name against the environment. [use_default]
      selects whether the default element namespace applies (true for
      element names, false for attributes and functions).
      @raise Failure if the name has an unbound prefix. *)
  val resolve : t -> use_default:bool -> qname -> qname
end
