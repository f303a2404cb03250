(* Seeded input generation for the three workloads.

   Everything an op consumes, and every value its output is checked
   against, is computed here from the seed, without calling the engine:
   the checks in [Workloads] compare what the browser or server produced
   with these numbers and strings. Sizes are stratified (one draw per
   stratum of the size distribution) so that two seeds give the same
   mix of sizes and differ only in order, content and targets; this
   keeps run-to-run spread small without fixing the inputs. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let syllables =
  [| "ka"; "lo"; "mi"; "ra"; "tu"; "ve"; "zo"; "ne"; "pa"; "si"; "do"; "fe" |]

let word st =
  String.concat ""
    (List.init
       (2 + Random.State.int st 2)
       (fun _ -> syllables.(Random.State.int st (Array.length syllables))))

(* [n] sizes log-uniform on [lo, hi], one per stratum, ascending *)
let stratified_sizes st ~n ~lo ~hi =
  let ratio = float_of_int hi /. float_of_int lo in
  Array.init n (fun i ->
      let u = (float_of_int i +. Random.State.float st 1.) /. float_of_int n in
      int_of_float (Float.round (float_of_int lo *. (ratio ** u))))

(* ------------------------------------------------------------------ *)
(* catalogue items, shared by page-load and click                      *)

let categories = 12

type item = { id : string; cat : int; price : int; name : string }

let gen_item st id =
  {
    id;
    cat = Random.State.int st categories;
    price = 1 + Random.State.int st 99;
    name = word st;
  }

let add_item buf it =
  Printf.bprintf buf
    "<li id=\"%s\" cat=\"c%d\" price=\"%d\"><span>%s</span> <button>buy</button></li>\n"
    it.id it.cat it.price it.name

(* ------------------------------------------------------------------ *)
(* page-load: a tab navigates through catalogue pages                   *)

type page = {
  html : string;
  script : string;  (** the page's one text/xquery script *)
  summary : string;  (** expected text of the inserted summary *)
}

(* Each script inserts "count:sum" of the items of one category above
   a price, found with value predicates, and attaches a listener to
   every item's button. The label makes one-off scripts distinct
   sources, so they miss the compiled-query cache. *)
let summary_script ~cat ~above ~label =
  Printf.sprintf
    {|declare updating function local:buy($evt, $obj) {
  insert node <li>{string($obj/../@id)}</li> as first into //ul[@id = "cart"]
};
let $hits := //li[@cat = "c%d"][@price > %d]
return (
  insert node
    <p id="summary" label="%s">{count($hits)}:{sum(for $h in $hits return xs:integer($h/@price))}</p>
    into //div[@id = "summary-box"],
  on event "onclick" at //button attach listener local:buy
)|}
    cat above label

let script_pool = Array.init 6 (fun k -> (k * 5 mod categories, 20 + (k * 11)))

(* share of pages whose script is one-off (a compiled-query cache miss) *)
let one_off_share = 0.25

let gen_page st ~index ~items ~pooled =
  let cat, above, label =
    if pooled then
      let k = Random.State.int st (Array.length script_pool) in
      let cat, above = script_pool.(k) in
      (cat, above, Printf.sprintf "pool-%d" k)
    else
      ( Random.State.int st categories,
        10 + Random.State.int st 80,
        Printf.sprintf "page-%d" index )
  in
  let script = summary_script ~cat ~above ~label in
  let buf = Buffer.create (200 + (items * 90)) in
  Printf.bprintf buf
    "<html><head><title>Catalogue %d</title>\n<script type=\"text/xquery\">%s</script>\n\
     </head><body><h1>Catalogue %d</h1>\n<div id=\"summary-box\"/>\n<ul id=\"cart\"/>\n\
     <ul id=\"catalogue\">\n"
    index script index;
  let count = ref 0 and sum = ref 0 in
  for i = 1 to items do
    let it = gen_item st (Printf.sprintf "p%d" i) in
    if it.cat = cat && it.price > above then (
      incr count;
      sum := !sum + it.price);
    add_item buf it
  done;
  Buffer.add_string buf "</ul></body></html>";
  { html = Buffer.contents buf; script; summary = Printf.sprintf "%d:%d" !count !sum }

(* page sizes: tens of items (the paper's demo pages) to thousands *)
let page_min_items = 20
let page_max_items = 2000

(* The tab's cost per load grows as it piles up state, so where a page
   falls in the run matters as much as its size. The sizes therefore
   come in ten size classes; each class has the same share of one-off
   scripts, and its pages sit at evenly spaced points of the run (with
   jitter). Every seed then has the same mix of size, script kind and
   position. *)
let size_classes = 10

let pages ~seed ~n =
  let st = rng ~seed ~salt:1 in
  let sizes = stratified_sizes st ~n ~lo:page_min_items ~hi:page_max_items in
  let placed =
    List.concat_map
      (fun c ->
        let first = c * n / size_classes in
        let m = ((c + 1) * n / size_classes) - first in
        let slot = Array.init m Fun.id in
        shuffle st slot;
        let one_offs = int_of_float (Float.round (one_off_share *. float_of_int m)) in
        let pooled = Array.init m (fun k -> k >= one_offs) in
        shuffle st pooled;
        List.init m (fun k ->
            let at = (float_of_int slot.(k) +. Random.State.float st 1.) /. float_of_int m in
            (at, sizes.(first + k), pooled.(k))))
      (List.init size_classes Fun.id)
  in
  List.sort compare placed
  |> List.mapi (fun index (_, items, pooled) -> gen_page st ~index ~items ~pooled)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* click: one page, a stream of user actions                            *)

type click_op =
  | Buy of item  (** click an item's buy button *)
  | More  (** click "load more": 50 items appended to the catalogue *)
  | Refresh  (** tick every dashboard panel *)
  | Type of { reset : bool; key : char }
      (** one keystroke in the suggest box; [reset] clears it first *)

type click_step = {
  op : click_op;
  expect : string;  (** the observation the op must produce *)
}

type click_input = {
  html : string;
  catalogue : item array;
  hint_names : string array;
  steps : click_step array;
}

let more_batch = 50
let panel_vals = 40

(* Per-op shares, as exact counts per 100 ops. Refreshes that follow a
   refresh are the only microsecond-scale ops (about 5 %), so p50 and
   p95 both fall among the millisecond-scale writes. "more" is rare so
   that the document, and with it the cost of a write, grows by only a
   fifth over a repetition. *)
let click_mix = [ (`Buy, 58); (`Type, 18); (`Refresh, 23); (`More, 1) ]

let click_script =
  Printf.sprintf
    {|declare updating function local:buy($evt, $obj) {
  let $item := $obj/..
  return (
    insert node <li ref="{$item/@id}">{string($item/@price)}</li> as first into //ul[@id = "cart"],
    insert node <val>{string($item/@price)}</val>
      into //div[@id = concat("panel-", $item/@cat)]
  )
};
declare updating function local:more($evt, $obj) {
  let $cat := //ul[@id = "catalogue"]
  let $n := count($cat/li)
  return insert nodes
    (for $i in $n + 1 to $n + %d
     return <li id="m{$i}" cat="c{$i mod %d}" price="{$i mod 97 + 1}"><span>new</span> <button>buy</button></li>)
    into $cat
};
declare updating function local:panel($evt, $obj) {
  if (sum($obj/val) gt xs:double($obj/@limit) and empty($obj/over))
  then insert node <over/> into $obj
  else ()
};
declare updating function local:onResult($readyState, $result) {
  if ($readyState = 4)
  then replace value of node //*[@id = "txtHint"] with string-join($result//hint/text(), ", ")
  else ()
};
declare updating function local:showHint($evt, $obj) {
  if (string-length(string($obj/@value)) = 0)
  then replace value of node //*[@id = "txtHint"] with ""
  else
    on event "stateChanged"
    behind rest:get(concat("http://hints.example/suggest?q=", string($obj/@value)))
    attach listener local:onResult
};
(
  on event "onclick" at //ul[@id = "catalogue"]/li/button attach listener local:buy,
  on event "onclick" at //button[@id = "more"] attach listener local:more,
  on event "tick" at //div[@class = "panel"] attach listener local:panel,
  on event "onkeyup" at //input[@id = "q"] attach listener local:showHint
)|}
    more_batch categories

(* the JavaScript side of the page counts buys as they bubble through
   the catalogue (both languages run on one click, paper §6.2) *)
let click_js =
  {|var buys = 0;
document.getElementById("catalogue").addEventListener("onclick", function(e) { buys++; }, false);|}

let hints_for names prefix =
  String.concat ", "
    (List.filter
       (fun n -> String.starts_with ~prefix n)
       (Array.to_list names))

let click_input ~seed ~ops =
  let st = rng ~seed ~salt:2 in
  (* a narrow band: write and render costs grow with the catalogue *)
  let n_items = 1450 + Random.State.int st 101 in
  let catalogue =
    Array.init n_items (fun i -> gen_item st (Printf.sprintf "p%d" (i + 1)))
  in
  let hint_names = Array.init 60 (fun _ -> word st) in
  let panel_vals_of =
    Array.init categories (fun _ ->
        Array.init panel_vals (fun _ -> 1 + Random.State.int st 9))
  in
  let sums = Array.map (Array.fold_left ( + ) 0) panel_vals_of in
  (* A panel crosses its limit after between one buy and twice the buys
     it can expect in a run (prices average 50), so about half of the
     panels cross during a run and refreshes see both outcomes. *)
  let per_panel_buys = max 1 (ops * List.assoc `Buy click_mix / 100 / categories) in
  let limits =
    Array.map
      (fun s -> s + (50 * (1 + Random.State.int st (2 * per_panel_buys))))
      sums
  in
  let kinds =
    let a =
      Array.of_list
        (List.concat_map (fun (k, c) -> List.init (c * ops / 100) (fun _ -> k)) click_mix)
    in
    let a = Array.append a (Array.make (ops - Array.length a) `Buy) in
    shuffle st a;
    a
  in
  let buf = Buffer.create (n_items * 100) in
  Printf.bprintf buf
    "<html><head><title>Shop</title>\n<script type=\"text/javascript\">%s</script>\n\
     <script type=\"text/xquery\">%s</script>\n</head><body>\n\
     <form>Search: <input type=\"text\" id=\"q\" value=\"\"/></form>\n\
     <p>Suggestions: <span id=\"txtHint\"/></p>\n<h2>Cart</h2>\n<ul id=\"cart\"/>\n\
     <h2>Dashboard</h2>\n"
    click_js click_script;
  Array.iteri
    (fun p vals ->
      Printf.bprintf buf "<div class=\"panel\" id=\"panel-c%d\" limit=\"%d\">" p limits.(p);
      Array.iter (fun v -> Printf.bprintf buf "<val>%d</val>" v) vals;
      Buffer.add_string buf "</div>\n")
    panel_vals_of;
  Buffer.add_string buf "<h2>Catalogue</h2>\n<ul id=\"catalogue\">\n";
  Array.iter (add_item buf) catalogue;
  Buffer.add_string buf "</ul>\n<button id=\"more\">load more</button>\n</body></html>";
  (* the model: what the page must show after each op *)
  let n_cat = ref n_items and over = Array.make categories false in
  let prefix = ref "" and word_left = ref 0 and target = ref "" in
  let buys = ref 0 in
  let step kind =
    match kind with
    | `Buy ->
        let it = catalogue.(Random.State.int st n_items) in
        incr buys;
        sums.(it.cat) <- sums.(it.cat) + it.price;
        { op = Buy it; expect = Printf.sprintf "%s, %d buys" it.id !buys }
    | `More ->
        n_cat := !n_cat + more_batch;
        { op = More; expect = Printf.sprintf "%d items, last m%d" !n_cat !n_cat }
    | `Refresh ->
        Array.iteri (fun p s -> if s > limits.(p) then over.(p) <- true) sums;
        let crossed =
          List.filter_map
            (fun p -> if over.(p) then Some (string_of_int p) else None)
            (List.init categories Fun.id)
        in
        { op = Refresh; expect = String.concat "," crossed }
    | `Type ->
        let reset = !word_left = 0 in
        if reset then (
          (* mostly real names (hints found), sometimes a random word *)
          target :=
            if Random.State.int st 4 = 0 then word st
            else hint_names.(Random.State.int st (Array.length hint_names));
          prefix := "";
          word_left := 1 + Random.State.int st (min 4 (String.length !target)));
        let key = !target.[String.length !prefix] in
        prefix := !prefix ^ String.make 1 key;
        decr word_left;
        { op = Type { reset; key }; expect = hints_for hint_names !prefix }
  in
  let steps = Array.map step kinds in
  { html = Buffer.contents buf; catalogue; hint_names; steps }

(* ------------------------------------------------------------------ *)
(* fleet: sessions browsing the §6.1 Reference 2.0 page                 *)

type fleet_input = {
  journals : int;
  volumes : int;
  issues : int;
  articles : int;  (** per issue *)
  sessions : int;
  visits : int;
  spread : float;  (** sessions arrive within this many virtual seconds *)
  fleet_seed : int;  (** arrival order and think times *)
}

(* One archive shape: the page's cost depends on the hierarchy, not
   only on the article count, so the seed varies who arrives when, not
   the archive. Every session arrives before the first one returns (the
   spread is below the shortest think time, 2.5 s), so the first visits
   are the only requests served while browsers are still being added:
   a quarter of the requests with four visits, which keeps p50 and p95
   off the boundary between the two regimes. *)
let fleet_input ~seed ~sessions =
  let st = rng ~seed ~salt:3 in
  {
    journals = 2;
    volumes = 2;
    issues = 5;
    articles = 5;
    sessions;
    visits = 4;
    spread = 2.;
    fleet_seed = Random.State.bits st;
  }

let article_count f = f.journals * f.volumes * f.issues * f.articles
