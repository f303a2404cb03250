module J = Minijs.Js_interp

type t = { database : Sql_lite.t; mutable renders : int }

exception Render_error of string

let create ?db () =
  { database = (match db with Some d -> d | None -> Sql_lite.create ()); renders = 0 }

let db t = t.database
let render_count t = t.renders

type segment = Text of string | Code of string | Expr of string

let split_template template =
  let n = String.length template in
  let segments = ref [] in
  let rec go i =
    if i >= n then ()
    else
      match
        let rec find j =
          if j + 1 >= n then None
          else if template.[j] = '<' && template.[j + 1] = '%' then Some j
          else find (j + 1)
        in
        find i
      with
      | None -> segments := Text (String.sub template i (n - i)) :: !segments
      | Some j ->
          if j > i then segments := Text (String.sub template i (j - i)) :: !segments;
          let is_expr = j + 2 < n && template.[j + 2] = '=' in
          let start = if is_expr then j + 3 else j + 2 in
          let rec close k =
            if k + 1 >= n then raise (Render_error "unterminated <% ... %>")
            else if template.[k] = '%' && template.[k + 1] = '>' then k
            else close (k + 1)
          in
          let e = close start in
          let body = String.sub template start (e - start) in
          segments := (if is_expr then Expr body else Code body) :: !segments;
          go (e + 2)
  in
  go 0;
  List.rev !segments

(* Templates are re-rendered on every request but their segmentation
   never changes; key the cache on the template text itself. *)
let template_cache : segment list Xquery.Query_cache.t =
  Xquery.Query_cache.create ~name:"template-cache" ~capacity:64 ()

let segments_of template =
  match Xquery.Query_cache.find template_cache template with
  | Some segs -> segs
  | None ->
      let segs = split_template template in
      Xquery.Query_cache.add template_cache template
        ~cost:(String.length template) segs;
      segs

let sql_value_to_js = function
  | Sql_lite.Int i -> J.vnum (float_of_int i)
  | Sql_lite.Float f -> J.vnum f
  | Sql_lite.Text s -> J.vstr s
  | Sql_lite.Null -> J.vstr ""

let result_set rows =
  (* paper-style java.sql.ResultSet: next() + getString(1-based) *)
  let remaining = ref rows in
  let current = ref [] in
  J.vplain
    [
      ( "next",
        J.vnative "next" (fun _ _ ->
            match !remaining with
            | [] -> J.vbool false
            | row :: rest ->
                current := row;
                remaining := rest;
                J.vbool true) );
      ( "getString",
        J.vnative "getString" (fun _ args ->
            let i = int_of_float (J.to_number (List.nth args 0)) in
            match List.nth_opt !current (i - 1) with
            | Some (_, v) -> J.vstr (Sql_lite.value_to_string v)
            | None -> J.vstr "") );
      ("close", J.vnative "close" (fun _ _ -> J.vbool true));
    ]

let render t template =
  t.renders <- t.renders + 1;
  let segments = segments_of template in
  let out = Buffer.create 512 in
  (* a headless browser/window hosts the scriptlet environment *)
  let b = Xqib.Browser.create () in
  let w = b.Xqib.Browser.top_window in
  let println =
    J.vnative "println" (fun _ args ->
        List.iter (fun v -> Buffer.add_string out (J.to_string v)) args;
        Buffer.add_char out '\n';
        J.vstr "")
  in
  let print =
    J.vnative "print" (fun _ args ->
        List.iter (fun v -> Buffer.add_string out (J.to_string v)) args;
        J.vstr "")
  in
  J.define_global b w "out" (J.vplain [ ("println", println); ("print", print) ]);
  let query sql =
    try Sql_lite.query t.database sql
    with Sql_lite.Sql_error m -> raise (Render_error ("SQL: " ^ m))
  in
  J.define_global b w "sql"
    (J.vplain
       [
         ( "query",
           J.vnative "query" (fun _ args ->
               let rows = query (J.to_string (List.nth args 0)) in
               J.varray
                 (List.map
                    (fun row ->
                      J.vplain (List.map (fun (c, v) -> (c, sql_value_to_js v)) row))
                    rows)) );
       ]);
  J.define_global b w "statement"
    (J.vplain
       [
         ( "executeQuery",
           J.vnative "executeQuery" (fun _ args ->
               result_set (query (J.to_string (List.nth args 0)))) );
       ]);
  List.iter
    (fun seg ->
      match seg with
      | Text s -> Buffer.add_string out s
      | Code c -> (
          try J.run_script b w c
          with J.Js_error m -> raise (Render_error ("scriptlet: " ^ m)))
      | Expr e -> (
          try Buffer.add_string out (J.to_string (J.eval_in_window b w e))
          with J.Js_error m -> raise (Render_error ("expression: " ^ m))))
    segments;
  Buffer.contents out

let register_page t http ~host ~path template =
  let previous = Http_sim.find_host http ~host in
  let handler req =
    if String.equal req.Http_sim.path path then
      Http_sim.ok ~content_type:"text/html" (render t template)
    else
      match previous with
      | Some h -> h req
      | None -> Http_sim.not_found req.Http_sim.path
  in
  Http_sim.register_host http ~host handler
