(** The JavaScript-subset interpreter with a browser DOM API — the
    paper's baseline client-side language (§2.1), including XPath
    embedded through [document.evaluate] (§2.2, delegated to the
    XQuery engine, of which XPath is a subset).

    Each window gets one global environment holding [document],
    [window], [alert], [XPathResult], [Math], [setTimeout] (scheduled
    on the browser's virtual clock) and friends. It is kept on the
    window ({!Xqib.Windows.script_context}) until the next page load.
    JavaScript and XQuery scripts on the same page share the same DOM
    and the same node listeners, which is the co-existence the mash-up
    of §6.2 relies on. *)

exception Js_error of string

type value =
  | VUndefined
  | VNull
  | VBool of bool
  | VNum of float
  | VStr of string
  | VObj of obj

and obj

val to_display : value -> string

(** Run a script in the window's global environment (creating it on
    first use). *)
val run_script : Xqib.Browser.t -> Xqib.Windows.t -> string -> unit

(** Evaluate an expression in the window's global environment. *)
val eval_in_window : Xqib.Browser.t -> Xqib.Windows.t -> string -> value

(** Register the ["text/javascript"] script engine and the inline
    [on*]-attribute handler provider with {!Xqib.Page}. Idempotent. *)
val install : unit -> unit

(** {1 Host embedding helpers}

    Used by the application server to run JSP-style scriptlets: build
    values and inject globals into a window's environment. *)

val vstr : string -> value
val vnum : float -> value
val vbool : bool -> value
val vnative : string -> (value -> value list -> value) -> value
val vplain : (string * value) list -> value
val varray : value list -> value
val vnode : Dom.node -> value
val to_string : value -> string
val to_number : value -> float
val truthy : value -> bool
val define_global : Xqib.Browser.t -> Xqib.Windows.t -> string -> value -> unit
val call : Xqib.Browser.t -> Xqib.Windows.t -> value -> value list -> value
