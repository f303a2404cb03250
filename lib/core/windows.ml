open Xmlb

type script_context = ..

type t = {
  wid : int;
  mutable wname : string;
  mutable status : string;
  mutable href : string;
  mutable document : Dom.node;
  mutable frames : t list;
  mutable parent : t option;
  mutable history_back : string list;
  mutable history_forward : string list;
  mutable last_modified : float option;
  mutable closed : bool;
  mutable screen_x : int;
  mutable screen_y : int;
  mutable outer_width : int;
  mutable outer_height : int;
  mutable scripts : script_context list;
}

let counter = ref 0

let create ?(name = "") ?(href = "about:blank") () =
  incr counter;
  {
    wid = !counter;
    wname = name;
    status = "";
    href;
    document = Dom.create_document ();
    frames = [];
    parent = None;
    history_back = [];
    history_forward = [];
    last_modified = None;
    closed = false;
    screen_x = 0;
    screen_y = 0;
    outer_width = 1024;
    outer_height = 768;
    scripts = [];
  }

let add_frame ~parent frame =
  frame.parent <- Some parent;
  parent.frames <- parent.frames @ [ frame ]

let remove_frame frame =
  match frame.parent with
  | None -> ()
  | Some p ->
      p.frames <- List.filter (fun f -> f != frame) p.frames;
      frame.parent <- None

let move_by w ~dx ~dy =
  w.screen_x <- w.screen_x + dx;
  w.screen_y <- w.screen_y + dy

let move_to w ~x ~y =
  w.screen_x <- x;
  w.screen_y <- y

let rec top w = match w.parent with None -> w | Some p -> top p
let origin w = Origin.of_uri w.href

let rec find_by_name w name =
  if String.equal w.wname name then Some w
  else List.find_map (fun f -> find_by_name f name) w.frames

let navigate w href =
  w.history_back <- w.href :: w.history_back;
  w.history_forward <- [];
  w.href <- href

let history_back w =
  match w.history_back with
  | [] -> ()
  | h :: rest ->
      w.history_forward <- w.href :: w.history_forward;
      w.href <- h;
      w.history_back <- rest

let history_forward w =
  match w.history_forward with
  | [] -> ()
  | h :: rest ->
      w.history_back <- w.href :: w.history_back;
      w.href <- h;
      w.history_forward <- rest

(* the href [history_go w n] would move [w] to, without moving it *)
let history_target w n =
  let rec walk href n l = match l with h :: rest when n > 0 -> walk h (n - 1) rest | _ -> href in
  if n < 0 then walk w.href (-n) w.history_back else walk w.href n w.history_forward

let rec history_go w n =
  if n < 0 then begin
    history_back w;
    history_go w (n + 1)
  end
  else if n > 0 then begin
    history_forward w;
    history_go w (n - 1)
  end

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)

type view = {
  root : Dom.node;
  registry : (int, t) Hashtbl.t;  (** materialized window element id -> window *)
  observer : Dom.observer_id;
  mutable syncing : bool;  (** guard against observer re-entry *)
}

let window_qn = Qname.make "window"
let name_qn = Qname.make "name"

let rec materialize_window ~policy ~accessor w registry =
  let accessible = Origin.allows policy ~accessor ~target:(origin w) in
  let el = Dom.create_element window_qn in
  if accessible then begin
    let name = Dom.create_attribute name_qn w.wname in
    let status = Bom.leaf "status" w.status in
    let location = Bom.location_to_xml ~href:w.href in
    let lm =
      Bom.leaf "lastModified"
        (match w.last_modified with
        | Some secs ->
            Xdm_datetime.date_time_to_string (Xdm_datetime.of_epoch_seconds ~tz_minutes:0 secs)
        | None -> "")
    in
    let geometry =
      Bom.element "geometry"
        [
          ("screenX", string_of_int w.screen_x);
          ("screenY", string_of_int w.screen_y);
          ("outerWidth", string_of_int w.outer_width);
          ("outerHeight", string_of_int w.outer_height);
        ]
    in
    let frames = Dom.create_element (Qname.make "frames") in
    Dom.fill frames ~attrs:[]
      (List.map
         (fun f -> materialize_window ~policy ~accessor f registry)
         w.frames);
    Dom.fill el ~attrs:[ name ] [ status; location; lm; geometry; frames ];
    Hashtbl.replace registry (Dom.id el) w
  end;
  (* cross-origin: an empty <window/> shell, not registered: every
     accessor yields the empty sequence and document() fails *)
  el

let enclosing_window view node =
  let rec climb n =
    match Hashtbl.find_opt view.registry (Dom.id n) with
    | Some w -> Some (n, w)
    | None -> ( match Dom.parent n with None -> None | Some p -> climb p)
  in
  climb node

let child_text el name =
  List.find_map
    (fun c ->
      match Dom.name c with
      | Some qn when String.equal qn.Qname.local name -> Some (Dom.string_value c)
      | _ -> None)
    (Dom.children el)

let rejected_writes = Obs.Metrics.counter "windows.rejected-writes"

let resync ~policy ~accessor ~on_navigate (el, w) =
  (* policy re-check at write time: the window may have navigated away *)
  if not (Origin.allows policy ~accessor ~target:(origin w)) then
    Obs.Metrics.incr rejected_writes
  else begin
    (match Dom.attribute_local el "name" with
    | Some n when not (String.equal n w.wname) -> w.wname <- n
    | _ -> ());
    (match child_text el "status" with
    | Some s when not (String.equal s w.status) -> w.status <- s
    | _ -> ());
    match
      List.find_map
        (fun c ->
          match Dom.name c with
          | Some { Qname.local = "location"; _ } -> child_text c "href"
          | _ -> None)
        (Dom.children el)
    with
    | Some href when not (String.equal href w.href) -> (
        (* the hook loads the page and commits the move once the page
           is there *)
        let commit () = navigate w href in
        match on_navigate with Some f -> f w href ~commit | None -> commit ())
    | _ -> ()
  end

let materialize ?(policy = Origin.Same_origin) ?on_navigate ~accessor w =
  let registry = Hashtbl.create 8 in
  let root = materialize_window ~policy ~accessor w registry in
  let rec view = lazy
    (let v =
       {
         root;
         registry;
         observer =
           Dom.observe ~root (fun mutation ->
               let v = Lazy.force view in
               if not v.syncing then begin
                 v.syncing <- true;
                 Fun.protect
                   ~finally:(fun () -> v.syncing <- false)
                   (fun () ->
                     let node =
                       match mutation with
                       | Dom.Children_changed n
                       | Dom.Attribute_changed (n, _)
                       | Dom.Value_changed n
                       | Dom.Renamed n ->
                           n
                     in
                     match enclosing_window v node with
                     | Some hit -> resync ~policy ~accessor ~on_navigate hit
                     | None -> ())
               end);
         syncing = false;
       }
     in
     v)
  in
  Lazy.force view

let view_root v = v.root

let node_of_window v w =
  Hashtbl.fold
    (fun nid win acc ->
      if win == w then
        (* find the node with this id in the tree *)
        match acc with
        | Some _ -> acc
        | None ->
            let rec find n =
              if Dom.id n = nid then Some n
              else List.find_map find (Dom.children n)
            in
            find v.root
      else acc)
    v.registry None

let window_of_node v node =
  Option.map snd (enclosing_window v node)

let window_at v node = Hashtbl.find_opt v.registry (Dom.id node)

let release v = Dom.unobserve v.observer
