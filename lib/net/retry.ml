type policy = {
  max_attempts : int;
  attempt_timeout : float option;
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  jitter : float;
}

let default =
  {
    max_attempts = 3;
    attempt_timeout = None;
    backoff_base = 0.1;
    backoff_factor = 2.;
    backoff_max = 5.;
    jitter = 0.1;
  }

let disabled =
  {
    max_attempts = 1;
    attempt_timeout = None;
    backoff_base = 0.;
    backoff_factor = 1.;
    backoff_max = 0.;
    jitter = 0.;
  }

type stats = {
  mutable attempts : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable successes : int;
  mutable exhausted : int;
}

let make_stats () =
  { attempts = 0; retries = 0; timeouts = 0; successes = 0; exhausted = 0 }

let timeout_status = 408

let timeout_response =
  { Http_sim.status = timeout_status; body = "attempt timed out (virtual deadline)";
    content_type = "text/plain"; retry_after = None }

let retryable resp =
  resp.Http_sim.status = 0 || resp.Http_sim.status >= 500
  || resp.Http_sim.status = timeout_status

let backoff policy ~attempt =
  Float.min policy.backoff_max
    (policy.backoff_base *. (policy.backoff_factor ** float_of_int (attempt - 1)))

let backoff_total policy ~attempts =
  let rec sum k acc =
    if k >= attempts then acc else sum (k + 1) (acc +. backoff policy ~attempt:k)
  in
  sum 1 0. *. (1. +. policy.jitter)

(* the per-call [stats] record's process-wide registry mirrors, so
   `browser:stats()` and --metrics see retry behaviour without threading
   a stats value everywhere *)
module Mirror = struct
  let c = Obs.Metrics.counter
  let attempts = c "retry.attempts"
  let timeouts = c "retry.timeouts"
  let successes = c "retry.successes"
  let exhausted = c "retry.exhausted"
  let retries = c "retry.retries"
  let retry_after_honored = c "retry.retry-after-honored"
  let backoff = Obs.Metrics.histogram "retry.backoff_s"
end

let fetch_check ?(policy = default) ?prng ?stats ~check http ?meth ?body uri =
  let clock = Http_sim.clock http in
  let record f = match stats with Some s -> f s | None -> () in
  let jittered delay =
    match prng with
    | Some p when policy.jitter > 0. && delay > 0. ->
        delay *. (1. +. (policy.jitter *. ((2. *. Prng.float p) -. 1.)))
    | _ -> delay
  in
  let rec attempt k =
    record (fun s -> s.attempts <- s.attempts + 1);
    Obs.Metrics.incr Mirror.attempts;
    let resp, latency = Http_sim.serve http ?meth ?body uri in
    let resp =
      match policy.attempt_timeout with
      | Some deadline when latency > deadline ->
          (* the caller waited exactly until the deadline, then gave up *)
          Virtual_clock.sleep clock deadline;
          record (fun s -> s.timeouts <- s.timeouts + 1);
          Obs.Metrics.incr Mirror.timeouts;
          timeout_response
      | _ ->
          Virtual_clock.sleep clock latency;
          resp
    in
    let verdict =
      if resp.Http_sim.status = 200 then
        match check resp with Ok v -> `Ok v | Error _ -> `Transient resp
      else if retryable resp then `Transient resp
      else `Permanent resp
    in
    match verdict with
    | `Ok v ->
        record (fun s -> s.successes <- s.successes + 1);
        Obs.Metrics.incr Mirror.successes;
        Ok v
    | `Permanent resp -> Error resp
    | `Transient resp ->
        if k >= policy.max_attempts then begin
          record (fun s -> s.exhausted <- s.exhausted + 1);
          Obs.Metrics.incr Mirror.exhausted;
          Error resp
        end
        else begin
          record (fun s -> s.retries <- s.retries + 1);
          Obs.Metrics.incr Mirror.retries;
          let wait = Float.max 0. (jittered (backoff policy ~attempt:k)) in
          (* an overloaded server's Retry-After hint is a lower bound:
             coming back earlier would only be shed again *)
          let wait =
            match resp.Http_sim.retry_after with
            | Some ra when ra > wait ->
                Obs.Metrics.incr Mirror.retry_after_honored;
                ra
            | _ -> wait
          in
          Obs.Metrics.observe Mirror.backoff wait;
          Virtual_clock.sleep clock wait;
          attempt (k + 1)
        end
  in
  if !Obs.Trace.enabled then
    Obs.Trace.with_span ~attrs:[ ("uri", uri) ] "net.fetch" (fun () ->
        let r = attempt 1 in
        (match r with
        | Ok _ -> Obs.Trace.add_attr "outcome" "ok"
        | Error resp ->
            Obs.Trace.add_attr "outcome"
              (Printf.sprintf "failed:%d" resp.Http_sim.status));
        r)
  else attempt 1

let fetch ?policy ?prng ?stats http ?meth ?body uri =
  match
    fetch_check ?policy ?prng ?stats ~check:(fun r -> Ok r) http ?meth ?body uri
  with
  | Ok r | Error r -> r
