module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core
module Histogram = Sl_util.Histogram
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals

type mode = Fcfs | Preemptive of int

type worker = {
  ptid : int;
  doorbell : Memory.addr;
  mutable req : Openloop.request option;
  mutable admitted_at : int;
}

type event = Arrival of Openloop.request | Ready of worker | Done of worker | Tick

(* Scheduler bookkeeping cost per decision (queue ops, policy check). *)
let decision_cycles = 20

let run ?(pool = 256) ?runnable_limit ~mode (cfg : Server.config) =
  let params = cfg.Server.params in
  let limit =
    match runnable_limit with Some l -> l | None -> params.Params.smt_width
  in
  if limit <= 0 || pool <= limit then
    invalid_arg "Sched_policy.run: need pool > runnable_limit > 0";
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:2 in
  let memory = Chip.memory chip in
  let latencies = Histogram.create () in
  let slowdowns = ref [] in
  let events = Mailbox.create () in
  let done_count = ref 0 in
  let finished = ref false in
  (* Worker threads on core 0. *)
  let workers =
    Array.init pool (fun i ->
        { ptid = i + 1; doorbell = Memory.alloc memory 1; req = None; admitted_at = 0 })
  in
  Array.iter
    (fun w ->
      let th = Chip.add_thread chip ~core:0 ~ptid:w.ptid ~mode:Ptid.User () in
      Chip.attach th (fun th ->
          Isa.monitor th w.doorbell;
          (* Announce availability only once the monitor is armed: a
             doorbell rung before MONITOR executes is architecturally
             lost, so the scheduler must not hand this worker out
             during the boot window. *)
          Mailbox.send events (Ready w);
          let rec serve () =
            let _ = Isa.mwait th in
            (match w.req with
            | Some req ->
              Isa.exec th req.Openloop.service_cycles;
              let sojourn = Sim.now () - req.Openloop.arrival in
              Histogram.record latencies sojourn;
              let demand = float_of_int (max 1 req.Openloop.service_cycles) in
              slowdowns := (float_of_int sojourn /. demand) :: !slowdowns;
              w.req <- None;
              incr done_count;
              if !done_count >= cfg.Server.count then finished := true;
              Mailbox.send events (Done w)
            | None -> ());
            serve ()
          in
          serve ());
      Chip.boot th)
    workers;
  (* The scheduler hardware thread on core 1. *)
  let scheduler = Chip.add_thread chip ~core:1 ~ptid:9000 ~mode:Ptid.Supervisor () in
  Chip.attach scheduler (fun th ->
      let queue : [ `Fresh of Openloop.request | `Resumed of worker ] Queue.t =
        Queue.create ()
      in
      (* Workers enter the free pool through Ready events they send
         after arming their monitors — never before, or a doorbell rung
         during the boot window would be architecturally lost and that
         request would never complete. *)
      let free = Queue.create () in
      let active = ref [] in
      (* The head is taken only once it can be admitted: a fresh
         request with the pool exhausted stays where it is. *)
      let admit_one () =
        (not (Queue.is_empty queue))
        &&
        match Queue.peek queue with
        | `Fresh _ when Queue.is_empty free -> false
        | `Fresh req ->
          ignore (Queue.take queue);
          let w = Queue.take free in
          Isa.exec th ~kind:Smt_core.Overhead decision_cycles;
          w.req <- Some req;
          w.admitted_at <- Sim.now ();
          active := w :: !active;
          Isa.store th w.doorbell 1L;
          true
        | `Resumed w ->
          ignore (Queue.take queue);
          Isa.exec th ~kind:Smt_core.Overhead decision_cycles;
          w.admitted_at <- Sim.now ();
          active := w :: !active;
          Isa.start th ~vtid:w.ptid;
          true
      in
      let rec admit_all () =
        if List.length !active < limit && admit_one () then admit_all ()
      in
      (* A stop frees a runnable slot but no worker, so it can admit a
         preempted head but never a fresh one while the pool is
         exhausted: such a stop would leave its slot empty, and once
         every admitted worker were stopped nothing would run to free a
         worker.  Preempt only for a head the freed slot can admit. *)
      let preempt_longest_running () =
        if
          (not (Queue.is_empty queue))
          &&
          match Queue.peek queue with
          | `Fresh _ -> not (Queue.is_empty free)
          | `Resumed _ -> true
        then begin
          match mode with
          | Fcfs -> ()
          | Preemptive quantum -> (
            let now = Sim.now () in
            let victim =
              List.fold_left
                (fun acc w ->
                  let age = now - w.admitted_at in
                  (* Never preempt a worker whose request already finished
                     (its Done event is in flight). *)
                  if w.req = None || age < quantum then acc
                  else
                    match acc with
                    | Some (best, best_age) when best_age >= age ->
                      Some (best, best_age)
                    | _ -> Some (w, age))
                None !active
            in
            match victim with
            | None -> ()
            | Some (w, _) ->
              Isa.exec th ~kind:Smt_core.Overhead decision_cycles;
              Isa.stop th ~vtid:w.ptid;
              active := List.filter (fun x -> x != w) !active;
              Queue.push (`Resumed w) queue)
        end
      in
      let rec loop () =
        match Mailbox.recv events with
        | Arrival req ->
          Queue.push (`Fresh req) queue;
          admit_all ();
          loop ()
        | Ready w ->
          Queue.push w free;
          admit_all ();
          loop ()
        | Done w ->
          active := List.filter (fun x -> x != w) !active;
          Queue.push w free;
          admit_all ();
          if not !finished then loop ()
        | Tick ->
          preempt_longest_running ();
          admit_all ();
          loop ()
      in
      loop ());
  Chip.boot scheduler;
  (* Quantum ticker. *)
  (match mode with
  | Fcfs -> ()
  | Preemptive quantum ->
    Sim.spawn sim (fun () ->
        while not !finished do
          Sim.delay quantum;
          Mailbox.send events Tick
        done));
  let rng = Sl_util.Rng.create cfg.Server.seed in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:cfg.Server.rate_per_kcycle)
    ~service:cfg.Server.service ~count:cfg.Server.count
    ~sink:(fun req -> Mailbox.send events (Arrival req));
  Sim.run sim;
  let arr = Array.of_list !slowdowns in
  Array.sort compare arr;
  {
    Server.completed = Histogram.count latencies;
    latencies;
    slowdowns = arr;
    elapsed_cycles = Sim.time sim;
    switch_overhead_cycles =
      Smt_core.work_done (Chip.exec_core chip 1) Smt_core.Overhead;
  }
