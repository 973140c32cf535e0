module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core
module Memory = Switchless.Memory
module Histogram = Sl_util.Histogram
module Nic = Sl_dev.Nic
module Notify = Sl_dev.Notify
module Apic_timer = Sl_dev.Apic_timer
module Swsched = Sl_baseline.Swsched
module Irq = Sl_baseline.Irq
module Flexsc = Sl_baseline.Flexsc
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals
module Latency = Sl_workload.Latency

type stats = {
  processed : int;
  dropped : int;
  dma_dropped : int;
  latencies : Histogram.t;
  elapsed_cycles : int;
  useful_cycles : float;
  poll_cycles : float;
  overhead_cycles : float;
  background_cycles : float;
}

let wasted_fraction s =
  let total = s.useful_cycles +. s.poll_cycles +. s.overhead_cycles in
  if total = 0.0 then 0.0 else (s.poll_cycles +. s.overhead_cycles) /. total

type config = {
  params : Params.t;
  seed : int64;
  arrivals : Arrivals.t;
  service : Sl_util.Dist.t;
  count : int;
  slo : int;
}

let default_config =
  {
    params = Params.default;
    seed = 1L;
    arrivals = Arrivals.poisson ~rate_per_kcycle:0.5;
    service = Sl_util.Dist.Constant 500.0;
    count = 2000;
    slo = 30_000;
  }

type result = { lat : Latency.summary; io : stats }

type delivery =
  | Mwait
  | Mwait_hardened of { watchdog : bool; horizon : Sim.Time.t option }
  | Rss of int
  | Polling
  | Irq
  | Napi
  | Flexsc

(* Mechanism constants.  No experiment varies them, so none is a knob. *)
let queue_depth = 4096
let background_chunk = 200
let poll_gap = 20  (* one empty check: read the tail, compare, loop *)
let wait_budget = 20_000  (* hardened mwait deadline *)
let miss_threshold = 3  (* consecutive missed wakeups before polling *)
let poll_recovery_checks = 64  (* consecutive empty polls before mwait again *)
let flexsc_background_ptid = 777_778

(* --- the world every design shares ---------------------------------------- *)

type world = {
  cfg : config;
  sim : Sim.t;
  lat : Latency.t;
  services : int array;  (* sampled demand by request id *)
  background : bool;
  mutable stop : bool;  (* every request served: the background job quits *)
  mutable background_done : float;
}

(* NIC pkt_ids are assigned in injection order, which is arrival order
   (one injector, strictly increasing arrival instants), so the packet
   with pkt_id = i demands [services.(i)]. *)
let demand w (pkt : Nic.packet) = w.services.(pkt.Nic.pkt_id)

let served w arrival =
  Latency.record w.lat (Sim.now () - arrival);
  if Latency.count w.lat >= w.cfg.count then w.stop <- true

(* A best-effort batch job soaking up spare cycles until serving ends:
   the co-location half of the paper's argument. *)
let background_loop w exec =
  while not w.stop do
    exec background_chunk;
    w.background_done <- w.background_done +. float_of_int background_chunk
  done

(* What a design hands back to [run]: the core whose cycles the stats
   report, the device ([None]: FlexSC posts requests without one), and
   how an arrival reaches the server. *)
type server = {
  core : Smt_core.t;
  nic : Nic.t option;
  post : Openloop.request -> unit;
}

(* An arrival reaches the device in an event at the arrival tick, behind
   the events already due then. *)
let nic_server w core nic =
  let arrive () = Nic.arrive nic in
  { core; nic = Some nic; post = (fun _ -> Sim.schedule w.sim ~at:(Sim.time w.sim) arrive) }

(* --- the paper's designs: hardware threads on one chip --------------------- *)

let chip_nic w ?queues () =
  let chip = Chip.create w.sim w.cfg.params ~cores:1 in
  (chip, Nic.create w.sim w.cfg.params (Chip.memory chip) ?queues ~queue_depth ())

let chip_background w chip ~ptid =
  if w.background then begin
    let bg = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.User ~weight:0.25 () in
    Chip.attach bg (fun th -> background_loop w (fun n -> Isa.exec th n));
    Chip.boot bg
  end

let rec drain w th nic q =
  match Nic.poll_queue nic q with
  | Some pkt ->
    Isa.exec th (demand w pkt);
    served w pkt.Nic.injected_at;
    drain w th nic q
  | None -> ()

(* One hardware thread per RX queue, parked in mwait on the queue's tail:
   the tail DMA write wakes it.  One queue is the paper's design; more is
   §4's smartNIC steering, per-flow parallelism with no software
   dispatcher. *)
let mwait w ~queues =
  let chip, nic = chip_nic w ~queues () in
  for q = 0 to queues - 1 do
    let net = Chip.add_thread chip ~core:0 ~ptid:(q + 1) ~mode:Ptid.Supervisor () in
    Chip.attach net (fun th ->
        Isa.monitor th (Nic.queue_tail_addr nic q);
        while not w.stop do
          if Nic.pending_queue nic q = 0 then ignore (Isa.mwait th);
          drain w th nic q
        done);
    Chip.boot net
  done;
  chip_background w chip ~ptid:(queues + 1);
  nic_server w (Chip.exec_core chip 0) nic

(* mwait that survives a faulty wakeup substrate: deadline-bounded waits,
   polling after repeated missed wakeups, mwait again once the storm
   passes, and an optional watchdog. *)
let mwait_hardened w ~watchdog =
  let chip, nic = chip_nic w () in
  let watchdog =
    if watchdog then Some (Watchdog.create chip ~core:0 ~ptid:99 ()) else None
  in
  (* Progress lives in [w], outside the body closure: a crash-stopped net
     thread restarts cold and re-runs the body from scratch, and must not
     forget the packets already processed.  Lost packets (descriptor-DMA
     drops, ring-full drops) never arrive; counting them towards
     completion keeps the loop from waiting forever for them. *)
  let accounted () = Latency.count w.lat + Nic.dma_dropped nic + Nic.dropped nic in
  let lives = ref 0 in
  let net = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach net (fun th ->
      Isa.monitor th (Nic.rx_tail_addr nic);
      incr lives;
      if !lives > 1 then Sim.count "io.crash_restart";
      let consecutive_misses = ref 0 in
      let empty_checks = ref 0 in
      let polling = ref false in
      while accounted () < w.cfg.count do
        (if !polling then begin
           (* Degraded mode: the wakeup path proved unreliable, so spin
              like a kernel-bypass stack until it looks healthy again. *)
           if Nic.pending nic = 0 then begin
             Isa.exec th ~kind:Smt_core.Poll poll_gap;
             incr empty_checks;
             if !empty_checks >= poll_recovery_checks then begin
               polling := false;
               Sim.count "io.recovery";
               consecutive_misses := 0
             end
           end
           else empty_checks := 0
         end
         else if Nic.pending nic = 0 then
           let deadline = Sim.now () + wait_budget in
           match Isa.mwait_for th ~deadline with
           | Some _ -> consecutive_misses := 0
           | None ->
             Sim.count "io.mwait_timeout";
             (* Data present but no doorbell woke us: a missed wakeup.
                A timeout with an empty queue is just idleness. *)
             if Nic.pending nic > 0 then begin
               Sim.count "io.missed_wakeup";
               incr consecutive_misses;
               if !consecutive_misses >= miss_threshold then begin
                 polling := true;
                 Sim.count "io.fallback";
                 empty_checks := 0
               end
             end);
        drain w th nic 0
      done;
      w.stop <- true;
      Option.iter Watchdog.stop watchdog);
  Chip.boot net;
  chip_background w chip ~ptid:2;
  Option.iter Watchdog.start watchdog;
  nic_server w (Chip.exec_core chip 0) nic

(* The kernel-bypass status quo: spin on the queue, paying [poll_gap]
   Poll cycles per empty check.  Only the poller serves, so [w.stop]
   cannot change while it spins. *)
let polling w =
  let chip, nic = chip_nic w () in
  let poller = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let arrived () = Nic.pending nic > 0 in
  Chip.attach poller (fun th ->
      while not w.stop do
        match Nic.poll nic with
        | Some pkt ->
          Isa.exec th (demand w pkt);
          served w pkt.Nic.injected_at
        | None -> Isa.spin th ~kind:Smt_core.Poll ~gap:poll_gap arrived
      done);
  Chip.boot poller;
  chip_background w chip ~ptid:2;
  nic_server w (Chip.exec_core chip 0) nic

(* --- the kernel status quo: a legacy IRQ and a software scheduler ---------- *)

(* One software-scheduled core with a legacy interrupt line.  The
   returned function raises one hardirq, whose handler runs the scheduler
   and then [publish]. *)
let kernel_irq sim params ~publish =
  let sched = Swsched.create sim params ~cores:1 () in
  let irq = Irq.create sim params ~cores:(Swsched.cores sched) in
  let handler ~exec =
    exec params.Params.sched_decision_cycles;
    publish ()
  in
  (sched, fun () -> Irq.raise_irq irq ~core:0 ~handler)

(* A NIC on the kernel's interrupt line: [gate] decides whether a
   doorbell raises the IRQ, the handler hands the device to [on_irq], and
   one software thread runs [serve] (plus the background job, if any). *)
let kernel_nic w ~gate ~on_irq ~serve =
  let nic = ref None in
  let sched, raise_irq =
    kernel_irq w.sim w.cfg.params ~publish:(fun () -> Option.iter on_irq !nic)
  in
  let notify () = if gate () then raise_irq () in
  let dev =
    Nic.create w.sim w.cfg.params (Memory.create ())
      ~notify:(Notify.Irq_line notify) ~queue_depth ()
  in
  nic := Some dev;
  let app = Swsched.thread sched () in
  Sim.spawn w.sim (fun () -> serve app dev);
  if w.background then begin
    let bg = Swsched.thread sched () in
    Sim.spawn w.sim (fun () -> background_loop w (fun n -> Swsched.exec bg n))
  end;
  nic_server w (Swsched.cores sched).(0) dev

(* One hardirq per packet: the handler runs the scheduler, pulls the
   descriptor and publishes the packet to the app's backlog.  Handlers
   serialize on the IRQ context, so the delivery path itself caps at
   1000 / (entry + sched + exit) packets per kcycle, and past that offered
   load the backlog delay, not the service queue, is what blows the
   SLO. *)
let irq w =
  let backlog = Mailbox.create () in
  let publish nic =
    match Nic.poll nic with Some pkt -> Mailbox.send backlog pkt | None -> ()
  in
  kernel_nic w ~gate:(fun () -> true) ~on_irq:publish ~serve:(fun app _ ->
      while not w.stop do
        let pkt = Mailbox.recv backlog in
        Swsched.exec app (demand w pkt);
        served w pkt.Nic.injected_at
      done)

(* Linux NAPI coalescing, the fix for the per-packet design's receive
   livelock: the first packet's IRQ masks further interrupts and wakes the
   network thread, which drains the queue and re-enables them only when it
   runs dry. *)
let napi w =
  let doorbell = Mailbox.create () in
  let irq_enabled = ref true in
  let gate () =
    if !irq_enabled then begin
      irq_enabled := false;
      true
    end
    else false
  in
  kernel_nic w ~gate ~on_irq:(fun _ -> Mailbox.send doorbell ()) ~serve:(fun app nic ->
      let rec drain () =
        match Nic.poll nic with
        | Some pkt ->
          Swsched.exec app (demand w pkt);
          served w pkt.Nic.injected_at;
          drain ()
        | None ->
          (* Queue dry: re-enable interrupts (a device register write)
             and re-check for the race where a packet landed meanwhile. *)
          Swsched.exec app ~kind:Smt_core.Overhead
            w.cfg.params.Params.nic_doorbell_cycles;
          irq_enabled := true;
          if Nic.pending nic > 0 then begin
            irq_enabled := false;
            drain ()
          end
      in
      while not w.stop do
        if Nic.pending nic = 0 then Mailbox.recv doorbell;
        drain ()
      done)

(* FlexSC-style serving ({!Sl_baseline.Flexsc}): arrivals are posted
   entries and the kernel worker runs them in batches.  There is no
   per-request notification at all: the mechanism tax is the batching
   delay, so the latency floor sits a batch window above mwait's. *)
let flexsc w =
  let core = Smt_core.create w.sim w.cfg.params in
  let worker =
    Flexsc.serve w.sim ~core
      ~work:(fun (req : Openloop.request) -> req.Openloop.service_cycles)
      ~complete:(fun req -> served w req.Openloop.arrival)
      ()
  in
  if w.background then begin
    let slot = Smt_core.add_slot core ~ptid:flexsc_background_ptid in
    Sim.spawn w.sim (fun () ->
        Smt_core.set_runnable core ~slot ~weight:0.25 true;
        background_loop w (fun n -> Smt_core.execute core ~slot ~kind:Smt_core.Useful n))
  end;
  { core; nic = None; post = Flexsc.post worker }

(* --- the builder ------------------------------------------------------------ *)

let run ?(background = false) delivery (cfg : config) =
  if cfg.count < 1 then invalid_arg "Io_path.run: count must be at least 1";
  let w =
    {
      cfg;
      sim = Sim.create ();
      lat = Latency.create ~slo:cfg.slo ();
      services = Array.make cfg.count 0;
      background;
      stop = false;
      background_done = 0.0;
    }
  in
  let s =
    match delivery with
    | Mwait -> mwait w ~queues:1
    | Rss queues ->
      if queues <= 0 then invalid_arg "Io_path.run: Rss queues must be positive";
      mwait w ~queues
    | Mwait_hardened { watchdog; horizon = _ } -> mwait_hardened w ~watchdog
    | Polling -> polling w
    | Irq -> irq w
    | Napi -> napi w
    | Flexsc -> flexsc w
  in
  Openloop.run w.sim (Sl_util.Rng.create cfg.seed) ~arrivals:cfg.arrivals
    ~service:cfg.service ~count:cfg.count
    ~sink:(fun req ->
      w.services.(req.Openloop.req_id) <- req.Openloop.service_cycles;
      s.post req);
  let until = match delivery with Mwait_hardened h -> h.horizon | _ -> None in
  Sim.run ?until w.sim;
  let elapsed = Sim.time w.sim in
  let io =
    {
      processed = Latency.count w.lat;
      dropped = Option.fold ~none:0 ~some:Nic.dropped s.nic;
      dma_dropped = Option.fold ~none:0 ~some:Nic.dma_dropped s.nic;
      latencies = Latency.hist w.lat;
      elapsed_cycles = elapsed;
      useful_cycles = Smt_core.work_done s.core Smt_core.Useful;
      poll_cycles = Smt_core.work_done s.core Smt_core.Poll;
      overhead_cycles = Smt_core.work_done s.core Smt_core.Overhead;
      background_cycles = w.background_done;
    }
  in
  { lat = Latency.summarize w.lat ~elapsed; io }

let run_load_mwait cfg = run Mwait cfg
let run_load_polling cfg = run Polling cfg
let run_load_interrupt cfg = run Irq cfg
let run_load_flexsc cfg = run Flexsc cfg

(* --- timer-tick wakeup latency ------------------------------------------ *)

let timer_wakeup_mwait params ~ticks ~period =
  if ticks < 1 then invalid_arg "Io_path.timer_wakeup_mwait: ticks must be at least 1";
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:1 in
  let timer = Apic_timer.create sim params (Chip.memory chip) ~period () in
  let latencies = Histogram.create () in
  let sched_thread = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach sched_thread (fun th ->
      Isa.monitor th (Apic_timer.count_addr timer);
      for i = 1 to ticks do
        let _ = Isa.mwait th in
        (* The tick fired at i * period; we are running now. *)
        Histogram.record latencies
          (Sim.now () - (i * period))
      done;
      Apic_timer.stop timer);
  Chip.boot sched_thread;
  Apic_timer.start timer;
  Sim.run sim;
  latencies

let timer_wakeup_interrupt params ~ticks ~period =
  if ticks < 1 then invalid_arg "Io_path.timer_wakeup_interrupt: ticks must be at least 1";
  let sim = Sim.create () in
  let doorbell = Mailbox.create () in
  let sched, raise_irq =
    kernel_irq sim params ~publish:(fun () -> Mailbox.send doorbell ())
  in
  let timer =
    Apic_timer.create sim params (Memory.create ()) ~notify:(Notify.Irq_line raise_irq)
      ~period ()
  in
  let latencies = Histogram.create () in
  let kernel_thread = Swsched.thread sched () in
  Sim.spawn sim (fun () ->
      for i = 1 to ticks do
        Mailbox.recv doorbell;
        (* Getting back on CPU requires the context (and its switch). *)
        Swsched.exec kernel_thread 1;
        Histogram.record latencies
          (Sim.now () - (i * period))
      done;
      Apic_timer.stop timer);
  Apic_timer.start timer;
  Sim.run sim;
  latencies
