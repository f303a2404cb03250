open Xmlb

type listener = {
  listener_name : Qname.t;
  invoke :
    ?memo:Reactive.memo * string -> (unit -> Xdm_item.sequence list) -> unit;
      (** Arguments are a thunk so a skipped dispatch never builds
          them; [?memo] comes with a host-computed key that determines
          the thunk's result, letting the skip decision run before the
          thunk is forced. *)
}

type host = {
  attach :
    event_type:string -> targets:Xdm_item.sequence -> listener:listener -> unit;
  attach_behind :
    event_type:string ->
    computation:(unit -> Xdm_item.sequence) ->
    listener:listener ->
    unit;
  detach :
    event_type:string -> targets:Xdm_item.sequence -> name:Qname.t -> unit;
  trigger : event_type:string -> targets:Xdm_item.sequence -> unit;
  set_style : Dom.node -> string -> string -> unit;
  get_style : Dom.node -> string -> string option;
  doc : string -> Dom.node;
  doc_available : string -> bool;
  put : Dom.node -> string -> unit;
  now : unit -> Xdm_datetime.t;
  alert : string -> unit;
  listener_error : string -> unit;
      (** sink for errors raised inside event listeners: like a real
          browser, a failing handler must not abort event dispatch *)
}

let target_nodes targets =
  List.filter_map
    (function Xdm_item.Node n -> Some n | Xdm_item.Atomic _ -> None)
    targets

(* Build the two-argument event node the paper passes to listeners
   (§4.3.2): $evt with type/detail children, $obj the location node. *)
let event_to_xml (e : Dom_event.event) =
  let el = Dom.create_element (Qname.make "event") in
  let field (name, text) =
    let child = Dom.create_element (Qname.make name) in
    Dom.fill child ~attrs:[] [ Dom.create_text text ];
    child
  in
  let fields =
    List.map field (("type", e.Dom_event.event_type) :: e.Dom_event.detail)
  in
  let payload = Option.to_list (Option.map Dom.clone e.Dom_event.payload) in
  Dom.fill el ~attrs:[] (fields @ payload);
  el

(* Fingerprint determining [event_to_xml e] (plus the $obj argument,
   keyed by identity): everything the built tree's content depends on.
   Computed without constructing any DOM node, so skipped dispatches
   stay cheap. *)
let event_key (e : Dom_event.event) =
  let b = Buffer.create 32 in
  Buffer.add_string b e.Dom_event.event_type;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ';';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    e.Dom_event.detail;
  (match e.Dom_event.payload with
  | Some p ->
      Buffer.add_char b '|';
      Buffer.add_string b (Dom.serialize p)
  | None -> ());
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int (Dom.id e.Dom_event.target));
  Buffer.contents b

let default_host =
  {
    attach =
      (fun ~event_type ~targets ~listener ->
        List.iter
          (fun node ->
            (* one memo per registration, owned by its closure: each
               (node, listener) pair runs against its own target, so
               footprints and argument fingerprints must not be shared
               across targets *)
            let memo = Reactive.fresh_memo () in
            ignore
              (Dom_event.add_listener node ~event_type
                 ~name:(Qname.to_clark listener.listener_name) (fun e ->
                   listener.invoke ~memo:(memo, event_key e) (fun () ->
                       let evt_node = Xdm_item.Node (event_to_xml e) in
                       let obj = Xdm_item.Node e.Dom_event.target in
                       [ [ evt_node ]; [ obj ] ]))))
          (target_nodes targets));
    attach_behind =
      (fun ~event_type ~computation ~listener ->
        (* no event loop in the standalone host: evaluate synchronously
           and deliver the completion signal (readyState 4) *)
        ignore event_type;
        let result = computation () in
        listener.invoke (fun () ->
            [ [ Xdm_item.Atomic (Xdm_atomic.Integer 4) ]; result ]));
    detach =
      (fun ~event_type ~targets ~name ->
        List.iter
          (fun node ->
            ignore
              (Dom_event.remove_named_listener node ~event_type
                 ~name:(Qname.to_clark name)))
          (target_nodes targets));
    trigger =
      (fun ~event_type ~targets ->
        List.iter
          (fun node -> ignore (Dom_event.fire ~event_type ~target:node ()))
          (target_nodes targets));
    set_style =
      (fun n name v ->
        try Style_util.set_on_node n name v with Dom.Refused r -> Pul.refused None r);
    get_style = Style_util.get_on_node;
    doc =
      (fun uri ->
        Xq_error.raise_error "FODC0002" "document %S is not available" uri);
    doc_available = (fun _ -> false);
    put =
      (fun _ uri ->
        Xq_error.raise_error "FOUP0002" "fn:put to %S is not supported" uri);
    now = Call_ctx.default.Call_ctx.now;
    alert = (fun s -> print_endline s);
    listener_error = (fun m -> Logs.err (fun f -> f "listener error: %s" m));
  }

type focus = { item : Xdm_item.item; position : int; size : int }

module Smap = Map.Make (String)

type t = {
  static : Static_context.t;
  globals : (string, Xdm_item.sequence ref) Hashtbl.t;
  locals : Xdm_item.sequence ref Smap.t;
  focus : focus option;
  pul : Pul.t;
  host : host;
  depth : int;
  compiled_fns :
    ( string option * string * int,
      t -> Xdm_item.sequence list -> Xdm_item.sequence )
    Hashtbl.t;
  mutable call : Call_ctx.t option;
}

let fn_key qn ~arity = (qn.Qname.uri, qn.Qname.local, arity)

let create ?(host = default_host) static =
  {
    static;
    globals = Hashtbl.create 16;
    locals = Smap.empty;
    focus = None;
    pul = Pul.create ();
    host;
    depth = 0;
    compiled_fns = Hashtbl.create 8;
    call = None;
  }

let key qn = Qname.to_clark qn

let bind t qn v = { t with locals = Smap.add (key qn) (ref v) t.locals }

let lookup_ref t qn =
  match Smap.find_opt (key qn) t.locals with
  | Some r -> r
  | None -> (
      match Hashtbl.find_opt t.globals (key qn) with
      | Some r ->
          (* global variables are shared mutable state outside the DOM
             footprint (script statements assign them between listener
             runs): a recorded run that reads one cannot be skipped *)
          Footprint.poison ();
          r
      | None ->
          Xq_error.raise_error Xq_error.undefined_variable
            "undefined variable $%s" (Qname.to_string qn))

let lookup t qn = !(lookup_ref t qn)
let bind_global t qn v = Hashtbl.replace t.globals (key qn) (ref v)

(* a global's value is saved beside its ref: an initializer that
   raises may have assigned an earlier script's global through it *)
type saved = {
  static_saved : Static_context.saved;
  fns_saved :
    ( string option * string * int,
      t -> Xdm_item.sequence list -> Xdm_item.sequence )
    Hashtbl.t;
  globals_saved : (string * Xdm_item.sequence ref * Xdm_item.sequence) list;
}

let save t =
  {
    static_saved = Static_context.save t.static;
    fns_saved = Hashtbl.copy t.compiled_fns;
    globals_saved = Hashtbl.fold (fun k r acc -> (k, r, !r) :: acc) t.globals [];
  }

let restore t s =
  Static_context.restore t.static s.static_saved;
  Hashtbl.reset t.compiled_fns;
  Hashtbl.iter (Hashtbl.replace t.compiled_fns) s.fns_saved;
  Hashtbl.reset t.globals;
  List.iter
    (fun (k, r, v) ->
      r := v;
      Hashtbl.replace t.globals k r)
    s.globals_saved

let with_focus t item ~position ~size =
  { t with focus = Some { item; position; size }; call = None }

let focus_item t =
  match t.focus with
  | Some f -> f.item
  | None ->
      Xq_error.raise_error "XPDY0002" "the context item is undefined"

(* The focus is preserved into function bodies: strict XQuery clears
   it, but the paper's listener functions navigate the page with
   absolute paths (//div[...], §4.4/§6.3), which XQIB supports by
   keeping the document as the context item. *)
let function_scope t = { t with locals = Smap.empty; depth = t.depth + 1 }
