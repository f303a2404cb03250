(* The serializer as it was before [Dom.serialize] wrote the nodes
   directly: it writes an [Xml_parser.tree], and a DOM node is first
   converted into trees. Kept as test code only, as the oracle the
   node serializer must match byte for byte. *)

open Xmlb

(* Namespace fixup: emit xmlns declarations so that reparsing resolves
   every name to the same URI. [scope] maps prefix -> uri currently in
   force ("" = default namespace). *)
module Smap = Map.Make (String)

let prefix_key (q : Qname.t) = Option.value ~default:"" q.Qname.prefix
let uri_of (q : Qname.t) = Option.value ~default:"" q.Qname.uri

let needed_declarations scope name attrs =
  (* declarations required so [name] and [attrs] resolve correctly *)
  let need = ref [] in
  let scope = ref scope in
  let declare prefix uri =
    if not (List.mem_assoc prefix !need) then begin
      need := (prefix, uri) :: !need;
      scope := Smap.add prefix uri !scope
    end
  in
  let check ~is_attr (q : Qname.t) =
    let p = prefix_key q and u = uri_of q in
    (* unprefixed attributes are in no namespace: nothing to declare *)
    if is_attr && p = "" then ()
    else
      let bound = Option.value ~default:"" (Smap.find_opt p !scope) in
      if bound <> u && not (p = "xml" || p = "xmlns") then declare p u
  in
  check ~is_attr:false name;
  List.iter (fun { Xml_parser.name = an; _ } -> check ~is_attr:true an) attrs;
  (List.rev !need, !scope)

let rec emit ?(scope = Smap.empty) buf ~indent ~level tree =
  let pad () =
    if indent then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ')
    end
  in
  match tree with
  | Xml_parser.Text t -> Buffer.add_string buf (Xml_escape.text t)
  | Xml_parser.Comment c ->
      pad ();
      Buffer.add_string buf "<!--";
      Buffer.add_string buf c;
      Buffer.add_string buf "-->"
  | Xml_parser.Pi (target, data) ->
      pad ();
      Buffer.add_string buf "<?";
      Buffer.add_string buf target;
      if data <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf data
      end;
      Buffer.add_string buf "?>"
  | Xml_parser.Element (name, attrs, children) ->
      pad ();
      let declarations, scope = needed_declarations scope name attrs in
      let n = Qname.to_string name in
      Buffer.add_char buf '<';
      Buffer.add_string buf n;
      List.iter
        (fun (prefix, uri) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf
            (if prefix = "" then "xmlns" else "xmlns:" ^ prefix);
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (Xml_escape.attribute uri);
          Buffer.add_char buf '"')
        declarations;
      List.iter
        (fun { Xml_parser.name = an; value } ->
          (* skip literal xmlns attributes: fixup regenerates them *)
          if
            an.Qname.prefix = Some "xmlns"
            || (an.Qname.prefix = None && an.Qname.local = "xmlns")
          then ()
          else begin
            Buffer.add_char buf ' ';
            Buffer.add_string buf (Qname.to_string an);
            Buffer.add_string buf "=\"";
            Buffer.add_string buf (Xml_escape.attribute value);
            Buffer.add_char buf '"'
          end)
        attrs;
      if children = [] then Buffer.add_string buf "/>"
      else if
        (* script/style bodies round-trip as raw text (cf. the parser) *)
        match String.lowercase_ascii name.Qname.local with
        | "script" | "style" -> true
        | _ -> false
      then begin
        Buffer.add_char buf '>';
        List.iter
          (function
            | Xml_parser.Text t -> Buffer.add_string buf t
            | other -> emit ~scope buf ~indent:false ~level:(level + 1) other)
          children;
        Buffer.add_string buf "</";
        Buffer.add_string buf n;
        Buffer.add_char buf '>'
      end
      else begin
        Buffer.add_char buf '>';
        let only_text =
          List.for_all (function Xml_parser.Text _ -> true | _ -> false) children
        in
        List.iter
          (emit ~scope buf ~indent:(indent && not only_text) ~level:(level + 1))
          children;
        if indent && not only_text then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (2 * level) ' ')
        end;
        Buffer.add_string buf "</";
        Buffer.add_string buf n;
        Buffer.add_char buf '>'
      end

let list_to_string ?(indent = false) trees =
  let buf = Buffer.create 256 in
  List.iter (emit buf ~indent ~level:0) trees;
  Buffer.contents buf

let to_string ?indent tree = list_to_string ?indent [ tree ]

(* A DOM node as trees: a document as its children, a standalone
   attribute as an element of its name holding its value. *)
let rec to_tree n : Xml_parser.tree =
  match Dom.kind n with
  | Dom.Text -> Xml_parser.Text (Option.get (Dom.value n))
  | Dom.Comment -> Xml_parser.Comment (Option.get (Dom.value n))
  | Dom.Processing_instruction ->
      Xml_parser.Pi (Option.get (Dom.pi_target n), Option.get (Dom.value n))
  | Dom.Attribute ->
      Xml_parser.Element (Option.get (Dom.name n), [], [ Xml_parser.Text (Option.get (Dom.value n)) ])
  | Dom.Element ->
      let attrs =
        List.map
          (fun a -> { Xml_parser.name = Option.get (Dom.name a); value = Option.get (Dom.value a) })
          (Dom.attributes n)
      in
      Xml_parser.Element (Option.get (Dom.name n), attrs, List.map to_tree (Dom.children n))
  | Dom.Document -> (
      match Dom.children n with
      | [ c ] -> to_tree c
      | cs -> Xml_parser.Element (Qname.make "document", [], List.map to_tree cs))

let to_trees n =
  match Dom.kind n with Dom.Document -> List.map to_tree (Dom.children n) | _ -> [ to_tree n ]

let serialize ?indent n = list_to_string ?indent (to_trees n)
