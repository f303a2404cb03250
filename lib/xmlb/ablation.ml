type t = {
  mutable acceleration : bool;
  mutable value_index : bool;
  mutable interning : bool;
  mutable join_planning : bool;
  mutable compiled_eval : bool;
  mutable query_cache : bool;
  mutable incremental : bool;
}

let current =
  {
    acceleration = true;
    value_index = true;
    interning = true;
    join_planning = true;
    compiled_eval = true;
    query_cache = true;
    incremental = true;
  }

let generation_count = ref 0
let generation () = !generation_count

let set v =
  if v <> current then begin
    incr generation_count;
    current.acceleration <- v.acceleration;
    current.value_index <- v.value_index;
    current.interning <- v.interning;
    current.join_planning <- v.join_planning;
    current.compiled_eval <- v.compiled_eval;
    current.query_cache <- v.query_cache;
    current.incremental <- v.incremental
  end

let with_ v f =
  let prev = { current with acceleration = current.acceleration } (* a copy *) in
  set v;
  Fun.protect ~finally:(fun () -> set prev) f

let fields t =
  [
    ("acceleration", t.acceleration);
    ("value-index", t.value_index);
    ("interning", t.interning);
    ("join-planning", t.join_planning);
    ("compiled-eval", t.compiled_eval);
    ("query-cache", t.query_cache);
    ("incremental", t.incremental);
  ]

let key t =
  String.concat "" (List.map (fun (_, on) -> if on then "1" else "0") (fields t))
