type meth = Get | Post

type request = { meth : meth; uri : string; path : string; body : string option }

type response = {
  status : int;
  body : string;
  content_type : string;
  retry_after : float option;
}

type latency_model = { base : float; per_kb : float }

let default_latency = { base = 0.05; per_kb = 0.002 }

(* ---------------- fault injection ---------------- *)

type fault_kind = Drop | Http_5xx | Corrupt_body | Extra_delay

type fault_spec = {
  drop : float;
  http_5xx : float;
  corrupt_body : float;
  extra_delay : float;
  extra_delay_s : float;
}

let no_faults =
  { drop = 0.; http_5xx = 0.; corrupt_body = 0.; extra_delay = 0.; extra_delay_s = 0. }

let uniform_faults ~rate =
  if rate < 0. || rate >= 1. then invalid_arg "uniform_faults: rate must be in [0, 1)";
  { no_faults with drop = rate /. 2.; http_5xx = rate /. 2. }

type fault_state = { spec : fault_spec; prng : Prng.t }

type t = {
  clock : Virtual_clock.t;
  latency : latency_model;
  handlers : (string, request -> response) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  bytes : (string, int) Hashtbl.t;
  mutable faults : fault_state option;  (** default for every host *)
  host_faults : (string, fault_state) Hashtbl.t;
  fault_counts : (fault_kind, int) Hashtbl.t;
  outcomes : (string * bool, int) Hashtbl.t;  (** (host, ok?) -> count *)
  mutable pending_cost : float;
      (** virtual seconds charged by the handler of the in-flight
          request (queueing/service time); folded into its latency *)
}

let create ?(latency = default_latency) clock =
  {
    clock;
    latency;
    handlers = Hashtbl.create 8;
    counts = Hashtbl.create 8;
    bytes = Hashtbl.create 8;
    faults = None;
    host_faults = Hashtbl.create 4;
    fault_counts = Hashtbl.create 4;
    outcomes = Hashtbl.create 8;
    pending_cost = 0.;
  }

let charge_latency t s = if s > 0. then t.pending_cost <- t.pending_cost +. s

let clock t = t.clock

let register_host t ~host handler = Hashtbl.replace t.handlers host handler
let find_host t ~host = Hashtbl.find_opt t.handlers host

let ok ?(content_type = "application/xml") body =
  { status = 200; body; content_type; retry_after = None }

let not_found path =
  { status = 404; body = "not found: " ^ path; content_type = "text/plain";
    retry_after = None }

let split_uri uri =
  let strip prefix s =
    let n = String.length prefix in
    if String.length s >= n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match
    match strip "http://" uri with
    | Some rest -> Some rest
    | None -> strip "https://" uri
  with
  | None -> None
  | Some rest -> (
      match String.index_opt rest '/' with
      | None -> Some (rest, "/")
      | Some i ->
          Some (String.sub rest 0 i, String.sub rest i (String.length rest - i)))

let register_doc t ~uri ?(content_type = "application/xml") body =
  match split_uri uri with
  | None -> invalid_arg ("register_doc: bad uri " ^ uri)
  | Some (host, path) ->
      let previous = Hashtbl.find_opt t.handlers host in
      register_host t ~host (fun req ->
          if String.equal req.path path then ok ~content_type body
          else
            match previous with
            | Some h -> h req
            | None -> not_found req.path)

let bump table key delta =
  Hashtbl.replace table key (delta + Option.value ~default:0 (Hashtbl.find_opt table key))

let fault_metrics =
  List.map
    (fun (kind, name) -> (kind, Obs.Metrics.counter ("net.fault." ^ name)))
    [ (Drop, "drop"); (Http_5xx, "http-5xx"); (Corrupt_body, "corrupt-body");
      (Extra_delay, "extra-delay") ]

let bump_fault t kind =
  bump t.fault_counts kind 1;
  Obs.Metrics.incr (List.assoc kind fault_metrics)

let set_faults t ?host ~seed spec =
  let state = { spec; prng = Prng.create ~seed } in
  match host with
  | Some host -> Hashtbl.replace t.host_faults host state
  | None -> t.faults <- Some state

let injected_faults t kind =
  Option.value ~default:0 (Hashtbl.find_opt t.fault_counts kind)

let total_injected_faults t = Hashtbl.fold (fun _ c acc -> acc + c) t.fault_counts 0

let outcome_count t ~host ~ok =
  Option.value ~default:0 (Hashtbl.find_opt t.outcomes (host, ok))

let fault_for t host =
  match Hashtbl.find_opt t.host_faults host with
  | Some _ as s -> s
  | None -> t.faults

(* skip the PRNG entirely for zero probabilities: a rate-0 spec consumes
   no randomness and behaves byte-identically to no spec at all *)
let draw state p = p > 0. && Prng.float state.prng < p

let dropped_response =
  { status = 0; body = "network error: connection dropped (injected fault)";
    content_type = "text/plain"; retry_after = None }

let unavailable_response =
  { status = 503; body = "service unavailable (injected fault)";
    content_type = "text/plain"; retry_after = None }

(* keep the first half and break the markup: downstream XML parsing is
   guaranteed to fail, like a truncated transfer *)
let corrupt_response resp =
  { resp with body = String.sub resp.body 0 (String.length resp.body / 2) ^ "<corrupt" }

(* serve a request, returning the response and any injected extra
   latency; fault decisions draw from the per-host (or default) PRNG in
   a fixed order, so the schedule replays exactly for a given seed *)
let serve_faulted t ~meth ~body uri =
  match split_uri uri with
  | None ->
      ({ status = 400; body = "bad uri: " ^ uri; content_type = "text/plain";
         retry_after = None }, 0.)
  | Some (host, path) ->
      bump t.counts host 1;
      let fs = fault_for t host in
      let extra =
        match fs with
        | Some s when draw s s.spec.extra_delay ->
            bump_fault t Extra_delay;
            s.spec.extra_delay_s
        | _ -> 0.
      in
      let resp, extra =
        match fs with
        | Some s when draw s s.spec.drop ->
            bump_fault t Drop;
            (dropped_response, extra)
        | Some s when draw s s.spec.http_5xx ->
            bump_fault t Http_5xx;
            (unavailable_response, extra)
        | _ -> (
            match Hashtbl.find_opt t.handlers host with
            | None ->
                ({ status = 502; body = "unknown host: " ^ host;
                   content_type = "text/plain"; retry_after = None }, extra)
            | Some handler -> (
                (* the handler may charge server-side queueing/service
                   time via [charge_latency]; save/restore so a nested
                   serve from inside a handler stays correctly scoped *)
                let saved = t.pending_cost in
                t.pending_cost <- 0.;
                let resp = handler { meth; uri; path; body } in
                let cost = t.pending_cost in
                t.pending_cost <- saved;
                let extra = extra +. cost in
                match fs with
                | Some s when resp.status = 200 && draw s s.spec.corrupt_body ->
                    bump_fault t Corrupt_body;
                    (corrupt_response resp, extra)
                | _ -> (resp, extra)))
      in
      bump t.bytes host (String.length resp.body);
      bump t.outcomes (host, resp.status = 200) 1;
      (resp, extra)

let round_trip_latency t resp =
  t.latency.base
  +. (t.latency.per_kb *. (float_of_int (String.length resp.body) /. 1024.))

let requests = Obs.Metrics.counter "net.requests"
let bytes = Obs.Metrics.counter "net.bytes"
let latencies = Obs.Metrics.histogram "net.latency_s"

let serve t ?(meth = Get) ?body uri =
  let go () =
    let resp, extra = serve_faulted t ~meth ~body uri in
    (* a dropped connection fails fast (connection reset after the base
       round trip); everything else pays the size-dependent model *)
    let latency =
      (if resp.status = 0 then t.latency.base else round_trip_latency t resp) +. extra
    in
    Obs.Metrics.incr requests;
    Obs.Metrics.add bytes (String.length resp.body);
    Obs.Metrics.observe latencies latency;
    (resp, latency)
  in
  if !Obs.Trace.enabled then
    Obs.Trace.with_span ~attrs:[ ("uri", uri) ] "net.request" (fun () ->
        let ((resp, latency) as r) = go () in
        Obs.Trace.add_attr "status" (string_of_int resp.status);
        Obs.Trace.add_attr "latency_s" (Printf.sprintf "%.4f" latency);
        r)
  else go ()

let fetch t ?(meth = Get) ?body uri =
  let resp, latency = serve t ~meth ?body uri in
  Virtual_clock.sleep t.clock latency;
  resp

let fetch_async t ?(meth = Get) ?body uri callback =
  (* the request is served when the task fires, after the latency *)
  let delay_probe = t.latency.base in
  Virtual_clock.schedule t.clock ~delay:delay_probe (fun () ->
      let resp, latency = serve t ~meth ?body uri in
      let extra = latency -. delay_probe in
      if extra > 0. then
        Virtual_clock.schedule t.clock ~delay:extra (fun () -> callback resp)
      else callback resp)

let request_count t ~host = Option.value ~default:0 (Hashtbl.find_opt t.counts host)
let total_requests t = Hashtbl.fold (fun _ c acc -> acc + c) t.counts 0
let bytes_served t ~host = Option.value ~default:0 (Hashtbl.find_opt t.bytes host)

let reset_stats t =
  Hashtbl.reset t.counts;
  Hashtbl.reset t.bytes;
  Hashtbl.reset t.fault_counts;
  Hashtbl.reset t.outcomes
