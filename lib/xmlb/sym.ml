type t = int

(* string -> id, plus the reverse array for O(1) [name]. The reverse
   side doubles on demand; slot [i] is valid iff [i < !count]. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 1024
let names = ref (Array.make 1024 "")
let count = ref 0
let byte_count = ref 0
let hit_count = ref 0
let miss_count = ref 0

let intern s =
  match Hashtbl.find_opt table s with
  | Some i ->
      incr hit_count;
      i
  | None ->
      let i = !count in
      incr count;
      incr miss_count;
      byte_count := !byte_count + String.length s;
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
let bytes () = !byte_count
let hits () = !hit_count
let misses () = !miss_count

let stats () =
  [
    ("size", !count);
    ("bytes", !byte_count);
    ("hits", !hit_count);
    ("misses", !miss_count);
  ]
