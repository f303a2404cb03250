open Xmlb
module SC = Xquery.Static_context

type service = {
  http : Http_sim.t;
  host : string;
  ns : string;
  fns : (string * int) list;
  compiled : Xquery.Engine.compiled;
  mutable calls : int;
}

let err fmt = Xq_error.raise_error "SEWS0001" fmt

let service_uri s = "http://" ^ s.host ^ "/wsdl"
let namespace_uri s = s.ns
let functions s = s.fns
let call_count s = s.calls

let descriptor s =
  let fns =
    String.concat ""
      (List.map
         (fun (name, arity) ->
           Printf.sprintf "<function name=\"%s\" arity=\"%d\"/>" name arity)
         s.fns)
  in
  Printf.sprintf "<service xmlns=\"\" ns=\"%s\">%s</service>" s.ns fns

(* The value an <arg> or <value> element carries as text: cast to the
   type its [type] attribute names, else (no such type, or the cast
   fails) untyped. *)
let typed_text el =
  let text = Xdm_atomic.Untyped (Dom.string_value el) in
  match Option.bind (Dom.attribute_local el "type") Xdm_atomic.type_of_name with
  | Some target -> (
      try Xdm_atomic.cast ~target text with Xq_error.Error _ -> text)
  | None -> text

(* protocol: POST /call, body <call fn="mul"><arg>2</arg><arg>5</arg></call>;
   response <result>…serialized sequence…</result> with atomic values as
   text and nodes as XML children. *)
let handle_call s body =
  let doc = Dom.of_string body in
  let call =
    match Dom.children doc with
    | [ c ] -> c
    | _ -> err "malformed web-service call"
  in
  let fname =
    match Dom.attribute_local call "fn" with
    | Some f -> f
    | None -> err "web-service call without fn attribute"
  in
  let args =
    List.map
      (fun argel ->
        (* an <arg> either wraps element children (nodes) or text
           (atomic, typed via the @type attribute) *)
        let elements =
          List.filter (fun c -> Dom.kind c = Dom.Element) (Dom.children argel)
        in
        if elements <> [] then List.map (fun e -> Xdm_item.Node (Dom.clone e)) elements
        else [ Xdm_item.Atomic (typed_text argel) ])
      (Dom.children call)
  in
  let qn = Qname.make ~uri:s.ns fname in
  let ctx = Xquery.Engine.context_for s.compiled in
  s.calls <- s.calls + 1;
  let result = Xquery.Engine.call ctx qn args in
  let buf = Buffer.create 64 in
  Buffer.add_string buf "<result>";
  List.iter
    (fun item ->
      match item with
      | Xdm_item.Node n -> Buffer.add_string buf (Dom.serialize n)
      | Xdm_item.Atomic a ->
          Buffer.add_string buf
            (Printf.sprintf "<value type=\"%s\">%s</value>"
               (Xdm_atomic.type_name (Xdm_atomic.type_of a))
               (Xml_escape.text (Xdm_atomic.to_string a))))
    result;
  Buffer.add_string buf "</result>";
  Buffer.contents buf

let publish ?host http ~source =
  let compiled = Xquery.Engine.compile source in
  let m =
    match compiled.Xquery.Engine.prog.Xquery.Ast.library_module with
    | Some m -> m
    | None -> err "a web service must be a library module"
  in
  let host =
    match host with
    | Some h -> h
    | None -> (
        match m.Xquery.Ast.mod_port with
        | Some p -> "localhost:" ^ string_of_int p
        | None -> err "web-service module needs a port: declaration or ~host")
  in
  let fns =
    List.filter_map
      (function
        | Xquery.Ast.P_function { fname; params; _ }
          when Option.equal String.equal fname.Qname.uri (Some m.Xquery.Ast.mod_uri) ->
            Some (fname.Qname.local, List.length params)
        | _ -> None)
      compiled.Xquery.Engine.decls
  in
  let s = { http; host; ns = m.Xquery.Ast.mod_uri; fns; compiled; calls = 0 } in
  Http_sim.register_host http ~host (fun req ->
      match req.Http_sim.path with
      | "/wsdl" -> Http_sim.ok (descriptor s)
      | "/call" -> (
          match req.Http_sim.body with
          | Some body -> (
              try Http_sim.ok (handle_call s body)
              with Xq_error.Error e ->
                {
                  Http_sim.status = 500;
                  body = Xq_error.to_string e;
                  content_type = "text/plain";
                  retry_after = None;
                })
          | None -> Http_sim.not_found "/call (missing body)")
      | p -> Http_sim.not_found p);
  s

(* ------------- client side ------------- *)

(* [None] when [body] is not a service descriptor *)
let parse_descriptor ~loc body =
  match Dom.children (Dom.of_string body) with
  | [ root ] when Dom.name root <> None && (Option.get (Dom.name root)).Qname.local = "service" ->
      let ns = Option.value ~default:"" (Dom.attribute_local root "ns") in
      let fns =
        List.filter_map
          (fun c ->
            match (Dom.attribute_local c "name", Dom.attribute_local c "arity") with
            | Some n, Some a -> (
                match int_of_string_opt a with
                | Some arity -> Some (n, arity)
                | None ->
                    Xq_error.raise_error "XQST0059"
                      "service descriptor at %s: function %s has arity %S, not an integer" loc n a)
            | _ -> None)
          (Dom.children root)
      in
      Some (ns, fns)
  | _ -> None
  | exception Xml_parser.Parse_error _ -> None

let stub ?retry ?prng http ~call_uri ~fname : SC.external_function =
  fun _cctx args ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "<call fn=\"%s\">" fname);
    List.iter
      (fun seq ->
        (* singleton atomics travel with their dynamic type so the
           service sees e.g. a real xs:integer, not untyped text *)
        (match seq with
        | [ Xdm_item.Atomic a ] ->
            Buffer.add_string buf
              (Printf.sprintf "<arg type=\"%s\">"
                 (Xdm_atomic.type_name (Xdm_atomic.type_of a)))
        | _ -> Buffer.add_string buf "<arg>");
        List.iter
          (fun item ->
            match item with
            | Xdm_item.Node n -> Buffer.add_string buf (Dom.serialize n)
            | Xdm_item.Atomic a ->
                Buffer.add_string buf (Xml_escape.text (Xdm_atomic.to_string a)))
          seq;
        Buffer.add_string buf "</arg>")
      args;
    Buffer.add_string buf "</call>";
    let resp =
      Retry.fetch ?policy:retry ?prng http ~meth:Http_sim.Post
        ~body:(Buffer.contents buf) call_uri
    in
    if resp.Http_sim.status <> 200 then
      err "web-service call %s failed: %s" fname resp.Http_sim.body
    else
      let doc = Dom.of_string resp.Http_sim.body in
      match Dom.children doc with
      | [ result ] ->
          List.map
            (fun c ->
              match Dom.name c with
              | Some { Qname.local = "value"; _ } -> Xdm_item.Atomic (typed_text c)
              | _ -> Xdm_item.Node (Dom.clone c))
            (Dom.children result)
      | _ -> err "malformed web-service response"

let module_resolver ?retry ?prng http ~uri ~locations =
  let locations = if locations = [] then [ uri ] else locations in
  let try_location loc =
    if not (String.length loc > 7 && String.sub loc 0 7 = "http://") then None
    else
      let resp = Retry.fetch ?policy:retry ?prng http loc in
      if resp.Http_sim.status <> 200 then None
      else if String.equal resp.Http_sim.content_type "application/xquery" then
        Some (SC.Module_source resp.Http_sim.body)
      else
        match parse_descriptor ~loc resp.Http_sim.body with
        | Some (ns, fns) ->
            let call_uri =
              match Http_sim.split_uri loc with
              | Some (host, _) -> "http://" ^ host ^ "/call"
              | None -> loc
            in
            Some
              (SC.Module_external
                 (List.map
                    (fun (fname, arity) ->
                      ( Qname.make ~uri:ns fname,
                        arity,
                        stub ?retry ?prng http ~call_uri ~fname ))
                    fns))
        | None -> None
  in
  match List.find_map try_location locations with
  | Some r -> r
  | None -> SC.Module_not_found
