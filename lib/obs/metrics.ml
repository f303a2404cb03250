(* A counter is its own cell, so [incr] is the [%incr] primitive. The
   tables map each registered name to its handle. *)
type counter = int ref

external incr : counter -> unit = "%incr"

let add c k = c := !c + k
let value c = !c

let bucket_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : int array;
}

(* [stats] holds sum, min and max unboxed *)
type histogram = { mutable n : int; stats : float array; cells : int array }

let counter_table : (string, counter) Hashtbl.t = Hashtbl.create 64
let histo_table : (string, histogram) Hashtbl.t = Hashtbl.create 16

let register table name make =
  match Hashtbl.find_opt table name with
  | Some h -> h
  | None ->
      let h = make () in
      Hashtbl.add table name h;
      h

let counter name = register counter_table name (fun () -> ref 0)

let clear h =
  h.n <- 0;
  h.stats.(0) <- 0.;
  h.stats.(1) <- Float.infinity;
  h.stats.(2) <- Float.neg_infinity;
  Array.fill h.cells 0 (Array.length h.cells) 0

let histogram name =
  register histo_table name (fun () ->
      let h =
        { n = 0; stats = Array.make 3 0.; cells = Array.make (Array.length bucket_bounds + 1) 0 }
      in
      clear h;
      h)

let observe h v =
  h.n <- h.n + 1;
  h.stats.(0) <- h.stats.(0) +. v;
  if v < h.stats.(1) then h.stats.(1) <- v;
  if v > h.stats.(2) then h.stats.(2) <- v;
  let rec slot i =
    if i >= Array.length bucket_bounds || v <= bucket_bounds.(i) then i else slot (i + 1)
  in
  let i = slot 0 in
  h.cells.(i) <- h.cells.(i) + 1

let set_enabled (_ : bool) = ()

(* the bindings [keep] accepts, sorted by name *)
let sorted_bindings table keep =
  Hashtbl.fold (fun k v acc -> if keep v then (k, v) :: acc else acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () =
  List.map (fun (k, c) -> (k, !c)) (sorted_bindings counter_table (fun c -> !c <> 0))

let histograms () =
  List.map
    (fun (k, h) ->
      let buckets = Array.copy h.cells in
      (k, { count = h.n; sum = h.stats.(0); min = h.stats.(1); max = h.stats.(2); buckets }))
    (sorted_bindings histo_table (fun h -> h.n > 0))

let reset () =
  Hashtbl.iter (fun _ c -> c := 0) counter_table;
  Hashtbl.iter (fun _ h -> clear h) histo_table

let to_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"counters\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Json.quote k);
      Buffer.add_string buf (Printf.sprintf ": %d" v))
    (counters ());
  Buffer.add_string buf "}, \"histograms\": {";
  List.iteri
    (fun i (k, h) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Json.quote k);
      Buffer.add_string buf
        (Printf.sprintf
           ": {\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"buckets\": [%s]}"
           h.count (Json.number h.sum) (Json.number h.min) (Json.number h.max)
           (String.concat ", " (List.map string_of_int (Array.to_list h.buckets)))))
    (histograms ());
  Buffer.add_string buf "}}";
  Buffer.contents buf
