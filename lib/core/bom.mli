(** The Browser Object Model pieces the paper exposes to XQuery as XML
    (§4.2.2): [browser:screen()] and [browser:navigator()], plus the
    location element used inside window nodes. *)

open Xmlb

type screen = {
  width : int;
  height : int;
  avail_width : int;
  avail_height : int;
  color_depth : int;
}

val default_screen : screen

type navigator = {
  app_name : string;
  app_version : string;
  user_agent : string;
  platform : string;
  language : string;
  cookie_enabled : bool;
}

(** Defaults mimic the paper's target browser. *)
val internet_explorer : navigator

val firefox : navigator

(** Build [<screen><width>…</width>…</screen>]. *)
val screen_to_xml : screen -> Dom.node

(** Build [<navigator><appName>…</appName>…</navigator>]. *)
val navigator_to_xml : navigator -> Dom.node

(** Build a [<location>] element with href/protocol/host/port/pathname
    children, the shape §4.2.1 queries navigate. *)
val location_to_xml : href:string -> Dom.node

val element : string -> (string * string) list -> Dom.node
(** [element name fields] — a small helper building an element with one
    child element per (name, text) field. *)

val leaf : string -> string -> Dom.node
(** [leaf name text] — [<name>text</name>]. *)

val qn : string -> Qname.t
