module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Histogram = Sl_util.Histogram
module Swsched = Sl_baseline.Swsched
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals

type stats = {
  completed : int;
  latencies : Histogram.t;
  slowdowns : float array;
  elapsed_cycles : int;
  switch_overhead_cycles : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let idx = Int.max 0 (Int.min (n - 1) (rank - 1)) in
    sorted.(idx)
  end

type config = {
  params : Params.t;
  seed : int64;
  cores : int;
  rate_per_kcycle : float;
  service : Sl_util.Dist.t;
  count : int;
}

let record latencies slowdowns (req : Openloop.request) =
  let sojourn = Sim.now () - req.Openloop.arrival in
  Histogram.record latencies sojourn;
  let demand = float_of_int (Int.max 1 req.Openloop.service_cycles) in
  slowdowns := (float_of_int sojourn /. demand) :: !slowdowns

let finish ~sim ~latencies ~slowdowns ~switch_overhead =
  let arr = Array.of_list !slowdowns in
  Array.sort compare arr;
  {
    completed = Histogram.count latencies;
    latencies;
    slowdowns = arr;
    elapsed_cycles = Sim.time sim;
    switch_overhead_cycles = switch_overhead;
  }

(* A run serves at least one request: with none, each runner would
   report an empty, idle run as a result. *)
let check_count fn cfg =
  if cfg.count < 1 then invalid_arg (fn ^ ": count must be at least 1")

(* --- software thread-per-request ---------------------------------------- *)

let run_software ?quantum cfg =
  check_count "Server.run_software" cfg;
  let sim = Sim.create () in
  let sched = Swsched.create sim cfg.params ?quantum ~cores:cfg.cores () in
  let latencies = Histogram.create () in
  let slowdowns = ref [] in
  let rng = Sl_util.Rng.create cfg.seed in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:cfg.rate_per_kcycle)
    ~service:cfg.service ~count:cfg.count
    ~sink:(fun req ->
      (* One fresh software thread per request. *)
      let worker = Swsched.thread sched () in
      Sim.spawn sim (fun () ->
          Swsched.exec worker req.Openloop.service_cycles;
          record latencies slowdowns req));
  Sim.run sim;
  finish ~sim ~latencies ~slowdowns
    ~switch_overhead:(Swsched.switch_overhead_cycles sched)

(* --- hardware thread-per-request ---------------------------------------- *)

module Closedloop = Sl_workload.Closedloop
module Latency = Sl_workload.Latency

type 'job worker = {
  bell : Memory.addr;
  mutable slot : 'job option;
  mutable enlisted : bool;  (* an entry for this worker sits in [free] *)
  mutable lives : int;
}

(* The crash-hardened pool: [pool_per_core] workers per core, each parked
   in mwait on its own doorbell, and a dispatcher (hardware steering,
   smartNIC-style) that rings a free worker's bell for every job sent to
   the returned inbox; jobs queue while the pool is exhausted.  [request]
   reads a job's request, [complete] runs once its service is done. *)
let hw_pool chip ~pool_per_core ~request ~complete =
  let memory = Chip.memory chip in
  let free = Mailbox.create () in
  let inbox = Mailbox.create () in
  for core = 0 to Chip.core_count chip - 1 do
    for i = 0 to pool_per_core - 1 do
      let ptid = (core * 1024) + i + 1 in
      let worker =
        { bell = Memory.alloc memory 1; slot = None; enlisted = false; lives = 0 }
      in
      let th = Chip.add_thread chip ~core ~ptid ~mode:Ptid.User () in
      Chip.attach th (fun th ->
          (* Pool workers park in mwait between requests by design; keep
             them out of the abandoned-process suspect report. *)
          Sim.set_daemon true;
          (* The body doubles as the cold-restart boot path.  Arm first —
             a bell rung before MONITOR executes is architecturally
             lost — then requeue any job orphaned by a crash-stop (died
             mid-request, or assigned into the dead window) so request
             conservation survives, and rejoin the free pool unless our
             entry is still queued there. *)
          Isa.monitor th worker.bell;
          worker.lives <- worker.lives + 1;
          if worker.lives > 1 then Sim.count "server.crash_restart";
          (match worker.slot with
          | Some job ->
            worker.slot <- None;
            Sim.count "server.crash_requeue";
            Mailbox.send inbox job
          | None -> ());
          if not worker.enlisted then begin
            worker.enlisted <- true;
            Mailbox.send free worker
          end;
          let rec serve () =
            let _ = Isa.mwait th in
            (match worker.slot with
            | Some job ->
              worker.slot <- None;
              Isa.exec th (request job).Openloop.service_cycles;
              complete job;
              worker.enlisted <- true;
              Mailbox.send free worker
            | None -> ());
            serve ()
          in
          serve ());
      Chip.boot th
    done
  done;
  Sim.spawn (Chip.sim chip) (fun () ->
      (* Like the workers, the dispatcher parks by design when the pool is
         exhausted; under injected faults wedged workers never return to
         [free], and the request source — not the dispatcher — carries
         liveness.  Unbounded on purpose: crash-stop requeues can push
         dispatches past [cfg.count]. *)
      Sim.set_daemon true;
      while true do
        let job = Mailbox.recv inbox in
        let worker = Mailbox.recv free in
        (* No yield between the pop and the bell write, so a restarting
           worker always observes either (enlisted, no slot) or
           (assigned, slot set) — never the half-claimed state. *)
        worker.enlisted <- false;
        worker.slot <- Some job;
        Memory.write memory worker.bell
          (Int64.of_int (request job).Openloop.req_id)
      done);
  inbox

let run_hw_pool ?(pool_per_core = 64) cfg =
  check_count "Server.run_hw_pool" cfg;
  let sim = Sim.create () in
  let chip = Chip.create sim cfg.params ~cores:cfg.cores in
  let latencies = Histogram.create () in
  let slowdowns = ref [] in
  let inbox =
    hw_pool chip ~pool_per_core ~request:Fun.id
      ~complete:(record latencies slowdowns)
  in
  let rng = Sl_util.Rng.create cfg.seed in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:cfg.rate_per_kcycle)
    ~service:cfg.service ~count:cfg.count ~sink:(Mailbox.send inbox);
  Sim.run sim;
  finish ~sim ~latencies ~slowdowns ~switch_overhead:0.0

(* --- closed-loop clients against the hardware pool ----------------------- *)

type closed_stats = {
  clients : int;
  issued : int;
  finished : int;
  c_timed_out : int;
  lat : Latency.summary;
  wall_cycles : int;
}

let run_hw_pool_closed ?(pool_per_core = 64) ?timeout ?slo ?horizon ~clients
    ~think cfg =
  if clients <= 0 then
    invalid_arg "Server.run_hw_pool_closed: clients must be positive";
  check_count "Server.run_hw_pool_closed" cfg;
  let sim = Sim.create () in
  let chip = Chip.create sim cfg.params ~cores:cfg.cores in
  let inbox =
    hw_pool chip ~pool_per_core ~request:fst ~complete:(fun (_, k) -> k ())
  in
  let rng = Sl_util.Rng.create cfg.seed in
  let cl =
    Closedloop.start ?timeout ?slo sim rng ~clients ~think ~service:cfg.service
      ~count:cfg.count
      ~submit:(fun req ~complete -> Mailbox.send inbox (req, complete))
  in
  Sim.run ?until:horizon sim;
  {
    clients;
    issued = Closedloop.issued cl;
    finished = Closedloop.completed cl;
    c_timed_out = Closedloop.timed_out cl;
    lat = Latency.summarize (Closedloop.latency cl) ~elapsed:(Sim.time sim);
    wall_cycles = Sim.time sim;
  }
