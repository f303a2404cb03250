type 'a entry = {
  value : 'a;
  cost : int;
  gen : int;
  mutable stamp : int;  (** recency: larger = more recently used *)
}

type 'a t = {
  (* the statistics' process-wide registry mirrors, shared by the
     caches of one name *)
  m_hit : Obs.Metrics.counter;
  m_miss : Obs.Metrics.counter;
  m_eviction : Obs.Metrics.counter;
  m_invalidation : Obs.Metrics.counter;
  m_cost_saved : Obs.Metrics.counter;
  mutable cap : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable gen : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable cost_saved : int;
}

let create ?(name = "cache") ?(capacity = 256) () =
  let c event = Obs.Metrics.counter (name ^ "." ^ event) in
  {
    m_hit = c "hit"; m_miss = c "miss"; m_eviction = c "eviction";
    m_invalidation = c "invalidation"; m_cost_saved = c "cost-saved";
    cap = max 1 capacity;
    table = Hashtbl.create 64;
    tick = 0;
    gen = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    cost_saved = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table
let generation t = t.gen

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

(* Least-recently-used key by linear scan: capacities are small (a few
   hundred compiled scripts) and insertion is the cold path, so O(n)
   here beats carrying an intrusive list through every lookup. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (k, e.stamp))
      t.table None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr t.m_eviction
  | None -> ()

let miss t =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr t.m_miss

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e when e.gen = t.gen ->
      t.hits <- t.hits + 1;
      t.cost_saved <- t.cost_saved + e.cost;
      Obs.Metrics.incr t.m_hit;
      Obs.Metrics.add t.m_cost_saved e.cost;
      touch t e;
      Some e.value
  | Some _ ->
      (* stale generation: behaves like a miss and frees the slot *)
      Hashtbl.remove t.table key;
      miss t;
      None
  | None ->
      miss t;
      None

let add t key ~cost value =
  if not (Hashtbl.mem t.table key) then
    while Hashtbl.length t.table >= t.cap do
      evict_lru t
    done;
  let e = { value; cost = max 0 cost; gen = t.gen; stamp = 0 } in
  touch t e;
  Hashtbl.replace t.table key e

let invalidate t =
  t.gen <- t.gen + 1;
  t.invalidations <- t.invalidations + 1;
  Obs.Metrics.incr t.m_invalidation

let set_capacity t n =
  t.cap <- max 1 n;
  while Hashtbl.length t.table > t.cap do
    evict_lru t
  done

let clear t = Hashtbl.reset t.table

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  cost_saved : int;
}

let stats (t : 'a t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.table;
    cost_saved = t.cost_saved;
  }

let reset_stats (t : 'a t) =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.invalidations <- 0;
  t.cost_saved <- 0

let hit_rate (t : 'a t) =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total
