type t = int

(* string -> id, plus the reverse array for O(1) [name]. The reverse
   side doubles on demand; slot [i] is valid iff [i < !count]. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 1024
let names = ref (Array.make 1024 "")
let count = ref 0
let hit_count = Obs.Metrics.counter "sym.hits"
let miss_count = Obs.Metrics.counter "sym.misses"
let byte_count = Obs.Metrics.counter "sym.bytes"

let intern s =
  match Hashtbl.find_opt table s with
  | Some i ->
      Obs.Metrics.incr hit_count;
      i
  | None ->
      let i = !count in
      incr count;
      Obs.Metrics.incr miss_count;
      Obs.Metrics.add byte_count (String.length s);
      if i >= Array.length !names then begin
        let bigger = Array.make (2 * Array.length !names) "" in
        Array.blit !names 0 bigger 0 (Array.length !names);
        names := bigger
      end;
      !names.(i) <- s;
      Hashtbl.replace table s i;
      i

let find_opt s = Hashtbl.find_opt table s
let name i = !names.(i)
let equal (a : int) (b : int) = a = b
let compare = Int.compare
let hash (i : int) = i

let size () = !count
let bytes () = Obs.Metrics.value byte_count
let hits () = Obs.Metrics.value hit_count
let misses () = Obs.Metrics.value miss_count
let stats () = [ ("size", size ()); ("bytes", bytes ()); ("hits", hits ()); ("misses", misses ()) ]
