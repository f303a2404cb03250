(* Read/write footprints for incremental listener recomputation.

   A *read footprint* is recorded while a listener query evaluates: the
   tree roots it consulted, the subtree scopes it walked, and the
   (local-name | id | attribute-key) index probes it made — each probe
   scoped to the subtree it was confined to. A *write footprint* is one
   record per DOM mutation: the ancestor-or-self id chain of the
   mutation point, and the names / id values / attribute keys the
   mutation added, removed or changed.

   Intersection is the dirtiness test: a read entry scoped at node S is
   affected by a mutation whose point chain passes through S. Scoping
   index probes the same way keeps one region's listener clean when a
   sibling region mutates even though both probe the same local name.

   Ownership: every tree root's per-root record (in [Dom]) carries a
   [watch], the footprints registered on that root. A completed pure
   run registers its footprint with the watch of every root it
   consulted, and a committed write batch is intersected only with the
   footprints registered on the written root. A watch holds its
   footprints weakly: the listener memo that owns a footprint keeps it
   alive, so a removed listener's footprint is collected with it and a
   document's watch with the document.

   Names, id values and attribute keys are keyed by their strings, so
   an entry lives as long as the footprint or write record holding it.

   This module deliberately knows nothing about [Dom.node] — it traffics
   in node ids, strings and watches only, so it sits below [Dom] in the
   library and both [Dom] (capture) and the evaluator (recording) can
   call it. *)

open Xmlb

type read = {
  mutable roots : watch list;  (* watches of every tree consulted *)
  scopes : (int, unit) Hashtbl.t;  (* subtree-walk origins (node ids) *)
  names : (string * int, unit) Hashtbl.t;  (* (local name, scope) probes *)
  ids : (string * int, unit) Hashtbl.t;  (* (id value, scope) probes *)
  keys : (string * string * int, unit) Hashtbl.t;
      (* (attribute local name, value, scope) probes *)
  mutable coarse : bool;
      (* entry cap exceeded: degrade to whole-root granularity *)
  mutable poisoned : bool;
      (* run read state we cannot fingerprint (globals, external
         functions, impure builtins) or performed effects; never skip *)
  mutable entries : int;
  mutable dirty : bool;  (* a committed write intersected it *)
  generation : int;  (* [Ablation.generation] when it was recorded *)
}

(* Registered clean footprints of one root, held weakly in
   [slots.(0 .. used-1)]; freed slots stay [None] until [add] compacts.
   [live] counts the clean entries as of the last add or commit, and
   gates write capture. *)
and watch = {
  mutable slots : read Weak.t;
  mutable used : int;
  mutable live : int;
}

let create () =
  {
    roots = [];
    scopes = Hashtbl.create 16;
    names = Hashtbl.create 8;
    ids = Hashtbl.create 8;
    keys = Hashtbl.create 8;
    coarse = false;
    poisoned = false;
    entries = 0;
    dirty = false;
    generation = Ablation.generation ();
  }

(* Writes made while [Ablation.current.incremental] is off are not
   captured, so a footprint recorded under an earlier configuration
   can no longer be trusted. Scans of a watch read the generation once
   and test every entry against it with [clean]. *)
let clean generation fp = (not fp.dirty) && fp.generation = generation
let is_clean fp = clean (Ablation.generation ()) fp

(* Past this many distinct entries a footprint stops paying for itself;
   fall back to "anything under a consulted root dirties me". *)
let max_entries = 4096

type wrec = {
  chain : int list;  (* ancestor-or-self ids of the mutation point *)
  mutable wnames : string list;  (* local names *)
  mutable wids : string list;  (* id values *)
  mutable wkeys : (string * string) list;  (* (attribute local name, value) *)
}

(* ------------------------------------------------------------------ *)
(* Watches                                                             *)

let watch () = { slots = Weak.create 0; used = 0; live = 0 }

let capturing w = Ablation.current.incremental && w.live > 0

(* Keep the clean entries, in a fresh array with room for as many again. *)
let compact w =
  let generation = Ablation.generation () in
  let keep = ref [] in
  for i = w.used - 1 downto 0 do
    match Weak.get w.slots i with
    | Some fp when clean generation fp -> keep := fp :: !keep
    | _ -> ()
  done;
  w.used <- List.length !keep;
  w.live <- w.used;
  w.slots <- Weak.create (max 8 (2 * w.used));
  List.iteri (fun i fp -> Weak.set w.slots i (Some fp)) !keep

let add w fp =
  if w.used = Weak.length w.slots then compact w;
  Weak.set w.slots w.used (Some fp);
  w.used <- w.used + 1;
  w.live <- w.live + 1

let register fp = List.iter (fun w -> add w fp) fp.roots

(* ------------------------------------------------------------------ *)
(* Recording (read side)                                               *)

let current : read option ref = ref None
let recording () = Option.is_some !current

(* Begin recording into [fp], returning the previously active recorder
   (listener runs can nest via re-dispatch). *)
let start fp =
  let prev = !current in
  current := Some fp;
  prev

let restore prev = current := prev

let overflow fp =
  fp.coarse <- true;
  Hashtbl.reset fp.scopes;
  Hashtbl.reset fp.names;
  Hashtbl.reset fp.ids;
  Hashtbl.reset fp.keys

let bump fp =
  fp.entries <- fp.entries + 1;
  if fp.entries > max_entries && not fp.coarse then overflow fp

let add_entry tbl fp key =
  if not fp.coarse && not (Hashtbl.mem tbl key) then begin
    Hashtbl.replace tbl key ();
    bump fp
  end

(* The active recorder, with [root] noted as consulted. *)
let with_fp root f =
  match !current with
  | None -> ()
  | Some fp ->
      if not (List.memq root fp.roots) then fp.roots <- root :: fp.roots;
      f fp

let reading_scope ~root ~node = with_fp root (fun fp -> add_entry fp.scopes fp node)

let reading_name ~root ~scope local =
  with_fp root (fun fp -> add_entry fp.names fp (local, scope))

let reading_id ~root ~scope v = with_fp root (fun fp -> add_entry fp.ids fp (v, scope))

let reading_key ~root ~scope ~local v =
  with_fp root (fun fp -> add_entry fp.keys fp (local, v, scope))

let poison () = Option.iter (fun fp -> fp.poisoned <- true) !current
let is_poisoned fp = fp.poisoned

(* ------------------------------------------------------------------ *)
(* Write records and batching                                          *)

let fresh_wrec ~chain = { chain; wnames = []; wids = []; wkeys = [] }
let add_wname w local = w.wnames <- local :: w.wnames
let add_wid w v = w.wids <- v :: w.wids
let add_wkey w ~local v = w.wkeys <- (local, v) :: w.wkeys

(* ------------------------------------------------------------------ *)
(* Intersection                                                        *)

let intersects_wrec fp w =
  fp.coarse
  || List.exists (fun c -> Hashtbl.mem fp.scopes c) w.chain
  || List.exists
       (fun l -> List.exists (fun c -> Hashtbl.mem fp.names (l, c)) w.chain)
       w.wnames
  || List.exists
       (fun v -> List.exists (fun c -> Hashtbl.mem fp.ids (v, c)) w.chain)
       w.wids
  || List.exists
       (fun (l, v) ->
         List.exists (fun c -> Hashtbl.mem fp.keys (l, v, c)) w.chain)
       w.wkeys

let intersects fp ws = fp.poisoned || List.exists (intersects_wrec fp) ws

let invalidations = Obs.Metrics.counter "reactive.invalidation"

(* Mark dirty, and unregister, every footprint on [w] that [ws] (writes
   under [w]'s root) intersects. *)
let mark w ws =
  let generation = Ablation.generation () in
  let live = ref 0 in
  for i = 0 to w.used - 1 do
    match Weak.get w.slots i with
    | Some fp when clean generation fp ->
        if intersects fp ws then begin
          fp.dirty <- true;
          Weak.set w.slots i None;
          Obs.Metrics.incr invalidations
        end
        else incr live
    | Some _ -> Weak.set w.slots i None
    | None -> ()
  done;
  w.live <- !live

(* Write records of the current mutation batch (a PUL apply funnels all
   its primitives into one commit), with the watch of the root each was
   made under. Reverse order. *)
let pending : (watch * wrec) list ref = ref []

let record_write w r = pending := (w, r) :: !pending

let commit () =
  match !pending with
  | [] -> ()
  | ps ->
      pending := [];
      let rec by_watch = function
        | [] -> ()
        | (w, _) :: _ as ps ->
            let mine, rest = List.partition (fun (w', _) -> w' == w) ps in
            mark w (List.rev_map snd mine);
            by_watch rest
      in
      by_watch ps

