(* One DOM contract for JavaScript and XQuery (paper §6.2: both
   languages share one DOM). A random edit script runs over a random
   page twice: once as JavaScript DOM calls, once as XQuery updates. After
   every op the two documents must serialize the same, the DOM must have
   refused the op in both languages or in neither, and a refused op must
   have left the document as it was. *)

module Q = QCheck
module J = Minijs.Js_interp
module B = Xqib.Browser

let () = J.install ()

(* ---------- pages ---------- *)

let names = [| "div"; "p"; "li"; "span" |]

let rec node_gen depth =
  Q.Gen.(
    frequency
      ([
         (3, map (Printf.sprintf "t%d") (int_bound 4));
         (1, return "<!--c-->");
         (1, return "<?pi x?>");
       ]
      @
      if depth = 0 then []
      else
        [
          ( 4,
            map3
              (fun ni k children ->
                let name = names.(ni mod Array.length names) in
                Printf.sprintf "<%s%s>%s</%s>" name
                  (if k < 2 then Printf.sprintf " k=\"v%d\"" k else "")
                  (String.concat "" children) name)
              (int_bound 9) (int_bound 3)
              (list_size (int_bound 3) (node_gen (depth - 1))) );
        ]))

let page_gen =
  Q.Gen.map
    (fun nodes -> "<html><body>" ^ String.concat "" nodes ^ "</body></html>")
    (Q.Gen.list_size (Q.Gen.int_range 1 4) (node_gen 2))

(* ---------- ops ---------- *)

(* [t] and [r] pick nodes of the document in document order (the
   document node first, attributes not counted); [v] picks a value *)
type op =
  | Append_new of int  (** a new element as [t]'s last child *)
  | Append_move of int * int  (** [r] moved to be [t]'s last child *)
  | Move_before_itself of int  (** [r] moved before [r]: nothing changes *)
  | Insert_before of int  (** a new element before [r] *)
  | Remove of int  (** [r] *)
  | Replace of int  (** [r] by a new element *)
  | Set_attribute of int * int  (** [k] on [t] *)
  | Rename of int  (** [t] *)
  | Set_text of int * int  (** [t]'s value *)

let op_gen =
  Q.Gen.(
    map3
      (fun sel a (b, v) ->
        match sel with
        | 0 -> Append_new a
        | 1 -> Append_move (a, b)
        | 2 -> Move_before_itself a
        | 3 -> Insert_before a
        | 4 -> Remove a
        | 5 -> Replace a
        | 6 -> Set_attribute (a, v)
        | 7 -> Rename a
        | _ -> Set_text (a, v))
      (int_bound 8) (int_bound 1000)
      (pair (int_bound 1000) (int_bound 3)))

let show_op = function
  | Append_new t -> Printf.sprintf "append-new %d" t
  | Append_move (t, r) -> Printf.sprintf "append-move %d %d" t r
  | Move_before_itself r -> Printf.sprintf "move-before-itself %d" r
  | Insert_before r -> Printf.sprintf "insert-before %d" r
  | Remove r -> Printf.sprintf "remove %d" r
  | Replace r -> Printf.sprintf "replace %d" r
  | Set_attribute (t, v) -> Printf.sprintf "set-attribute %d %d" t v
  | Rename t -> Printf.sprintf "rename %d" t
  | Set_text (t, v) -> Printf.sprintf "set-text %d %d" t v

let scenario =
  Q.make
    ~print:(fun (page, ops) -> page ^ " with " ^ String.concat ", " (List.map show_op ops))
    Q.Gen.(pair page_gen (list_size (int_range 1 12) op_gen))

(* ---------- the two languages ---------- *)

let nodes doc = doc :: Dom.descendants doc
let pick l i = List.nth l (i mod List.length l)

(* The op on a document, as the node indices (1-based, in document
   order) and sources of both languages; [None] when it is not drawn. A
   move, a removal and a [set text] never pick the document node: XQuery
   copies a document's children where JavaScript refuses to move it,
   deletes a parentless node as a no-op where [removeChild] refuses, and
   a document whose whole content is replaced leaves little to edit. A
   cyclic move is not drawn: XQuery moves a copy, so it is not refused. *)
type resolved = { t : int; r : int; js : string; xq : string }

let resolve doc op =
  let all = nodes doc in
  let index n =
    let rec go i = function
      | m :: rest -> if Dom.equal m n then i else go (i + 1) rest
      | [] -> assert false
    in
    go 1 all
  in
  let any i = index (pick all i) in
  let child i = match List.tl all with [] -> 1 | kids -> index (pick kids i) in
  let mk ?(t = 1) ?(r = 1) js xq = Some { t; r; js; xq } in
  match op with
  | Append_new t ->
      mk ~t:(any t) "t.appendChild(document.createElement('x'));" "insert node <x/> into $t"
  | Append_move (t, r) ->
      let t = any t and r = child r in
      let tn = List.nth all (t - 1) and rn = List.nth all (r - 1) in
      if r = 1 || Dom.equal tn rn || Dom.is_ancestor ~ancestor:rn tn then None
      else mk ~t ~r "t.appendChild(r);" "(delete node $r, insert node $r into $t)"
  | Move_before_itself r ->
      let r = child r in
      if r = 1 then None
      else mk ~r "p.insertBefore(r, r);" "(delete node $r, insert node $r before $r)"
  | Insert_before r ->
      mk ~r:(any r) "p.insertBefore(document.createElement('y'), r);"
        "insert node <y/> before $r"
  | Remove r ->
      let r = child r in
      if r = 1 then None else mk ~r "p.removeChild(r);" "delete node $r"
  | Replace r ->
      mk ~r:(any r) "p.replaceChild(document.createElement('z'), r);"
        "replace node $r with <z/>"
  | Set_attribute (t, v) ->
      mk ~t:(any t)
        (Printf.sprintf "t.setAttribute('k', 'w%d');" v)
        (Printf.sprintf
           "if ($t/@k) then replace value of node $t/@k with 'w%d' \
            else insert node attribute k {'w%d'} into $t"
           v v)
  | Rename t -> mk ~t:(any t) "document.renameNode(t, null, 'q');" "rename node $t as 'q'"
  | Set_text (t, v) ->
      let t = child t in
      if t = 1 then None
      else
        mk ~t (Printf.sprintf "t.textContent = 's%d';" v)
          (Printf.sprintf "replace value of node $t with 's%d'" v)

(* Run the JavaScript side: [Some message] when the DOM refused the op *)
let run_js b res =
  let w = b.B.top_window in
  let all = nodes (B.document b) in
  let t = List.nth all (res.t - 1) and r = List.nth all (res.r - 1) in
  let p = match Dom.parent r with Some p -> p | None -> B.document b in
  List.iter
    (fun (name, n) -> J.define_global b w name (J.vnode n))
    [ ("t", t); ("r", r); ("p", p) ];
  J.run_script b w ("var refused = ''; try { " ^ res.js ^ " } catch (e) { refused = e; }");
  match J.to_string (J.eval_in_window b w "refused") with
  | "" -> None
  | m
    when List.exists
           (fun name -> String.starts_with ~prefix:(name ^ ": ") m)
           [ "HierarchyRequestError"; "NotFoundError"; "NotSupportedError" ] ->
      Some m
  | m -> QCheck.Test.fail_reportf "JavaScript: %s: %s" res.js m

(* Run the XQuery side: [Some error] when the DOM refused the op *)
let run_xq b res =
  let src =
    Printf.sprintf
      "let $t := (/descendant-or-self::node())[%d], $r := (/descendant-or-self::node())[%d] \
       return %s"
      res.t res.r res.xq
  in
  match Xqib.Page.run_xquery b b.B.top_window src with
  | _ -> None
  | exception Xq_error.Error e
    when String.starts_with ~prefix:"XU" e.code || e.code = "XPTY0004" ->
      Some (Xq_error.to_string e)
  | exception Xq_error.Error e ->
      QCheck.Test.fail_reportf "XQuery: %s: %s" src (Xq_error.to_string e)

let prop_same_document (page, ops) =
  let load () =
    let b = B.create () in
    Xqib.Page.load b page;
    b
  in
  let js = load () and xq = load () in
  let show b = Dom.serialize (B.document b) in
  List.iteri
    (fun i op ->
      let before = show js in
      match resolve (B.document js) op with
      | None -> ()
      | Some res ->
          let refused_js = run_js js res and refused_xq = run_xq xq res in
          let fail what =
            QCheck.Test.fail_reportf "op %d (%s: %s | %s) on %s: %s\nJS: %s (%s)\nXQuery: %s (%s)"
              i (show_op op) res.js res.xq before what (show js)
              (Option.value refused_js ~default:"applied")
              (show xq)
              (Option.value refused_xq ~default:"applied")
          in
          if Option.is_some refused_js <> Option.is_some refused_xq then
            fail "refused in one language only";
          if show js <> show xq then fail "the documents differ";
          if refused_js <> None && show js <> before then fail "a refused op changed the document")
    ops;
  true

let suite =
  [
    QCheck_alcotest.to_alcotest
      (Q.Test.make ~count:100 ~long_factor:20
         ~name:"JavaScript DOM calls and XQuery updates leave the same document" scenario
         prop_same_document);
  ]
