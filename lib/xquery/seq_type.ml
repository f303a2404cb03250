open Xmlb

let kind_matches (kt : Ast.kind_test) node =
  match (kt, Dom.kind node) with
  | Ast.Any_kind, _ -> true
  | Ast.Text_kind, Dom.Text -> true
  | Ast.Comment_kind, Dom.Comment -> true
  | Ast.Pi_kind target, Dom.Processing_instruction -> (
      match target with
      | None -> true
      | Some t -> Option.equal String.equal (Dom.pi_target node) (Some t))
  | Ast.Element_kind name, Dom.Element -> (
      match name with
      | None -> true
      | Some qn -> (
          match Dom.name node with
          | Some n -> Qname.equal n qn
          | None -> false))
  | Ast.Attribute_kind name, Dom.Attribute -> (
      match name with
      | None -> true
      | Some qn -> (
          match Dom.name node with
          | Some n -> Qname.equal n qn
          | None -> false))
  | Ast.Document_kind, Dom.Document -> true
  | _, _ -> false

let item_matches (it : Ast.item_type) (item : Xdm_item.item) =
  match (it, item) with
  | Ast.It_item, _ -> true
  | Ast.It_kind kt, Xdm_item.Node n -> kind_matches kt n
  | Ast.It_kind _, Xdm_item.Atomic _ -> false
  | Ast.It_atomic _, Xdm_item.Node _ -> false
  | Ast.It_atomic ty, Xdm_item.Atomic a ->
      Xdm_atomic.derives_from (Xdm_atomic.type_of a) ty

let occurrence_ok (occ : Ast.occurrence) n =
  match occ with
  | Ast.Occ_one -> n = 1
  | Ast.Occ_optional -> n <= 1
  | Ast.Occ_star -> true
  | Ast.Occ_plus -> n >= 1

let matches (st : Ast.seq_type) seq =
  match st with
  | Ast.St_empty -> seq = []
  | Ast.St (it, occ) ->
      occurrence_ok occ (List.length seq) && List.for_all (item_matches it) seq

let occurrence_to_string = function
  | Ast.Occ_one -> ""
  | Ast.Occ_optional -> "?"
  | Ast.Occ_star -> "*"
  | Ast.Occ_plus -> "+"

let kind_to_string = function
  | Ast.Any_kind -> "node()"
  | Ast.Text_kind -> "text()"
  | Ast.Comment_kind -> "comment()"
  | Ast.Pi_kind None -> "processing-instruction()"
  | Ast.Pi_kind (Some t) -> Printf.sprintf "processing-instruction(%s)" t
  | Ast.Element_kind None -> "element()"
  | Ast.Element_kind (Some q) -> Printf.sprintf "element(%s)" (Qname.to_string q)
  | Ast.Attribute_kind None -> "attribute()"
  | Ast.Attribute_kind (Some q) ->
      Printf.sprintf "attribute(%s)" (Qname.to_string q)
  | Ast.Document_kind -> "document-node()"

let item_type_to_string = function
  | Ast.It_item -> "item()"
  | Ast.It_kind kt -> kind_to_string kt
  | Ast.It_atomic ty -> "xs:" ^ Xdm_atomic.type_name ty

let to_string = function
  | Ast.St_empty -> "empty-sequence()"
  | Ast.St (it, occ) -> item_type_to_string it ^ occurrence_to_string occ

let coerce ~what st seq =
  let fail () =
    Xq_error.raise_error Xq_error.type_error_code
      "%s does not match required type %s (got %d item(s))" what (to_string st)
      (List.length seq)
  in
  match st with
  | Ast.St_empty -> if seq = [] then seq else fail ()
  | Ast.St (Ast.It_atomic ty, occ) ->
      (* function conversion rules: atomize, cast untyped, promote *)
      let atoms = Xdm_item.atomize seq in
      if not (occurrence_ok occ (List.length atoms)) then fail ();
      let convert a =
        let a =
          match a with
          | Xdm_atomic.Untyped _ when ty <> Xdm_atomic.T_untyped -> (
              try Xdm_atomic.cast ~target:ty a
              with Xq_error.Error e -> Xq_error.raise_error e.code "%s: %s" what e.message)
          | a -> a
        in
        let actual = Xdm_atomic.type_of a in
        if Xdm_atomic.derives_from actual ty then a
        else
          (* numeric promotion: integer/decimal promote to double etc. *)
          match (actual, ty) with
          | (Xdm_atomic.T_integer | Xdm_atomic.T_decimal), Xdm_atomic.T_double ->
              Xdm_atomic.cast ~target:Xdm_atomic.T_double a
          | Xdm_atomic.T_integer, Xdm_atomic.T_decimal ->
              Xdm_atomic.cast ~target:Xdm_atomic.T_decimal a
          | Xdm_atomic.T_any_uri, Xdm_atomic.T_string ->
              Xdm_atomic.cast ~target:Xdm_atomic.T_string a
          | _ -> fail ()
      in
      List.map (fun a -> Xdm_item.Atomic (convert a)) atoms
  | Ast.St (it, occ) ->
      if occurrence_ok occ (List.length seq) && List.for_all (item_matches it) seq
      then seq
      else fail ()
