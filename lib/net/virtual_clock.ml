type task = { fire_at : float; seq : int; run : unit -> unit }

type t = {
  mutable time : float;
  mutable queue : task list;  (** sorted by (fire_at, seq) *)
  mutable next_seq : int;
  mutable lag : float;
      (** how late the currently-running task fired: time - fire_at.
          Sequentialising concurrent sessions runs some tasks after
          other sessions' blocking work advanced the clock; [now - lag]
          recovers the time the task was meant to start (the fleet
          server uses it as the request arrival time) *)
  epoch : float;  (** epoch seconds of virtual time 0 *)
}

(* virtual time 0 = 2008-06-09T12:00:00Z, the engine's fixed default *)
let default_epoch =
  Xdm_datetime.to_epoch_seconds
    (Xdm_datetime.make ~year:2008 ~month:6 ~day:9 ~hour:12 ~tz_minutes:0 ())

let create ?(start = 0.) () =
  { time = start; queue = []; next_seq = 0; lag = 0.; epoch = default_epoch }

let now t = t.time
let current_lag t = t.lag
let sleep t d = if d > 0. then t.time <- t.time +. d

let schedule t ~delay run =
  let task = { fire_at = t.time +. Float.max 0. delay; seq = t.next_seq; run } in
  t.next_seq <- t.next_seq + 1;
  let rec insert = function
    | [] -> [ task ]
    | x :: rest ->
        if
          x.fire_at < task.fire_at
          || (x.fire_at = task.fire_at && x.seq < task.seq)
        then x :: insert rest
        else task :: x :: rest
  in
  t.queue <- insert t.queue

let pending t = List.length t.queue

let tasks = Obs.Metrics.counter "clock.tasks"
let task_lags = Obs.Metrics.histogram "clock.task-lag_s"

let run_next t =
  match t.queue with
  | [] ->
      t.lag <- 0.;
      false
  | task :: rest ->
      t.queue <- rest;
      Obs.Metrics.incr tasks;
      Obs.Metrics.observe task_lags (Float.max 0. (task.fire_at -. t.time));
      t.time <- Float.max t.time task.fire_at;
      t.lag <- t.time -. task.fire_at;
      task.run ();
      true

exception Budget_exhausted of { budget : int; pending : int }

let () =
  Printexc.register_printer (function
    | Budget_exhausted { budget; pending } ->
        Some
          (Printf.sprintf
             "Virtual_clock.Budget_exhausted: ran %d tasks, %d still pending"
             budget pending)
    | _ -> None)

let budget_exhausted = Obs.Metrics.counter "clock.budget-exhausted"

let run_until_idle ?(max_tasks = 100_000) t =
  let rec go n =
    if n >= max_tasks then begin
      let pending = List.length t.queue in
      Obs.Metrics.incr budget_exhausted;
      Logs.err (fun m ->
          m "Virtual_clock.run_until_idle: task budget %d exhausted (%d tasks pending)"
            max_tasks pending);
      raise (Budget_exhausted { budget = max_tasks; pending })
    end
    else if run_next t then go (n + 1)
  in
  go 0

let epoch_seconds t = t.epoch +. t.time
let to_datetime t = Xdm_datetime.of_epoch_seconds ~tz_minutes:0 (epoch_seconds t)
