(** Qualified names and namespace handling (XML Namespaces 1.0).

    A {!t} is an expanded name: an optional namespace URI, an optional
    prefix (kept for serialization fidelity only; equality ignores it)
    and a local part — plus the pre-interned {!Sym} symbols of the URI
    and local part, built once at construction, so name comparison and
    index keying are int operations. The record is private: build names
    with {!make}/{!of_string}/{!with_uri} so the symbols always agree
    with the strings. *)

type t = private {
  uri : string option;  (** namespace URI, [None] = no namespace *)
  prefix : string option;  (** original prefix, ignored by {!equal} *)
  local : string;
  usym : int;  (** interned URI symbol; [-1] when [uri] is [None] *)
  lsym : Sym.t;  (** interned local-part symbol *)
}

val make : ?uri:string -> ?prefix:string -> string -> t

(** [of_string s] splits ["p:local"] into prefix [p] and local part;
    the URI is left unresolved ([None]). *)
val of_string : string -> t

(** Replace the URI, re-interning its symbol (the only correct way to
    change a name's namespace — a record update would leave a stale
    symbol). *)
val with_uri : t -> string option -> t

(** The pre-interned local-part symbol. *)
val lsym : t -> Sym.t

(** The pre-interned URI symbol, [-1] for no namespace. *)
val usym : t -> int

(** Equality on expanded name: URI and local part only. Symbol compare
    when interned fast paths are on, string compare under the
    [--no-interning] ablation — same decisions either way. *)
val equal : t -> t -> bool

(** String-based order in both modes (symbol ids are intern-order and
    must not leak into sorted output); the fast path short-circuits
    equality to O(1). *)
val compare : t -> t -> int

(** Mix of the pre-interned symbols; consistent with {!equal}. *)
val hash : t -> int

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
