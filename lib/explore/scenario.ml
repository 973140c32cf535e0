module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Nic = Sl_dev.Nic
module Nvme = Sl_dev.Nvme
module Irq = Sl_baseline.Irq
module Swsched = Sl_baseline.Swsched
module Fault = Sl_fault.Fault
module Analysis = Sl_analysis.Analysis
module Report = Sl_analysis.Report
module Latency = Sl_workload.Latency
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals
module Dist = Sl_util.Dist
module Histogram = Sl_util.Histogram
module Server = Sl_dist.Server
module Io_path = Sl_os.Io_path
module Hw_channel = Sl_os.Hw_channel
module Watchdog = Sl_os.Watchdog
module Contention = Sl_os.Contention
module Lock = Sl_sync.Lock

type outcome = {
  pass : bool;
  reason : string;
  injected : (string * int) list;
  recovery : (string * int) list;
  summary : (string * int) list;
  findings : Report.finding list;
}

type t = {
  name : string;
  prob_dims : string list;
  cycles_dims : (string * int * int) list;
  run : Fault.plan -> outcome;
}

let sites o =
  List.sort compare
    (o.recovery @ List.map (fun (k, n) -> ("inj." ^ k, n)) o.injected)

let p = Params.default

(* Run one workload under the full sanitizer set and an ambient injector
   built from [plan], collecting the worlds it builds.  A workload is
   handed [site], a recovery site's count over those worlds, and returns
   its verdicts — plan-independent invariants, each [(holds, why)] — and
   the statistics it read; the failed verdicts and any sanitizer findings
   become the outcome's reason.  The result is a pure function of the
   plan: the sim is deterministic, the injector's streams derive from the
   plan's seed, and the counters are those of the worlds this run
   built. *)
let guard body plan =
  let worlds = ref [] in
  let site name = Option.value ~default:0 (List.assoc_opt name (Sim.counts !worlds)) in
  let inj = Fault.create plan in
  let (verdicts, summary), findings =
    Sim.observing ~key:"scenario"
      (function Sim.World w -> worlds := w :: !worlds | _ -> ())
      (fun () -> Analysis.with_all (fun () -> Fault.with_ambient inj (fun () -> body site)))
  in
  let reasons =
    List.filter_map (fun (ok, why) -> if ok then None else Some why) verdicts
  in
  let reasons =
    if findings = [] then reasons
    else reasons @ [ "sanitizer: " ^ Report.summary findings ]
  in
  {
    pass = reasons = [];
    reason = String.concat "; " reasons;
    injected = Fault.counts inj;
    recovery = Sim.counts !worlds;
    summary;
    findings;
  }

(* --- the hardened closed-loop pool ---------------------------------------- *)

(* E16's closed-loop population against the crash-hardened mwait worker
   pool, with per-request timeouts as the only client-side hardening.  A
   lost doorbell wakeup can wedge a pool worker, but the client times the
   request out and moves on; a crash-stopped worker cold-restarts,
   re-arms and requeues its orphaned request.  The oracles are the
   end-to-end invariants the hardening is supposed to buy: every request
   is issued before the horizon, every issued request is completed or
   timed out, and the SLO ledger stays consistent with the completion
   count. *)
let closed_pool ~count ~pool_per_core ~timeout ~clients ~think ?horizon _site =
  let cfg =
    {
      Server.params = p;
      seed = 16L;
      cores = 1;
      rate_per_kcycle = 0.0;
      service = Dist.Exponential 1400.0;
      count;
    }
  in
  let r =
    Server.run_hw_pool_closed ~pool_per_core ~timeout ~slo:30_000 ?horizon
      ~clients ~think:(Dist.Exponential think) cfg
  in
  let lat = r.Server.lat in
  ( [
      ( r.Server.issued = count,
        Printf.sprintf "stuck: issued %d of %d before the horizon"
          r.Server.issued count );
      ( r.Server.finished + r.Server.c_timed_out = r.Server.issued,
        Printf.sprintf "conservation: %d completed + %d timed out of %d issued"
          r.Server.finished r.Server.c_timed_out r.Server.issued );
      ( lat.Latency.count = r.Server.finished,
        Printf.sprintf "ledger: %d latency samples for %d completions"
          lat.Latency.count r.Server.finished );
      ( lat.Latency.slo_miss <= lat.Latency.count,
        Printf.sprintf "ledger: %d SLO misses exceed %d completions"
          lat.Latency.slo_miss lat.Latency.count );
    ],
    [
      ("issued", r.Server.issued);
      ("completed", r.Server.finished);
      ("timed_out", r.Server.c_timed_out);
      ("slo_miss", lat.Latency.slo_miss);
      ("p99", lat.Latency.p99);
      ("wall", r.Server.wall_cycles);
    ] )

(* --- the failure-hardened NIC RX path ------------------------------------- *)

(* Every request is processed or counted lost (ring-full or DMA drop) —
   never silently missing — a missed wakeup is only ever discovered by an
   mwait timeout, and the tail stays bounded.  The path's counts are its
   recovery sites. *)
let hardened_io ~count ~watchdog site =
  let cfg =
    { Io_path.default_config with Io_path.count; service = Dist.Constant 300.0 }
  in
  let res =
    Io_path.run
      (Io_path.Mwait_hardened { watchdog; horizon = Some 40_000_000 })
      cfg
  in
  let b = res.Io_path.io in
  let accounted = b.Io_path.processed + b.Io_path.dropped + b.Io_path.dma_dropped in
  let timeouts = site "io.mwait_timeout" and missed = site "io.missed_wakeup" in
  let p99 = Histogram.quantile b.Io_path.latencies 0.99 in
  ( [
      ( accounted = count,
        Printf.sprintf
          "lost requests: %d processed + %d ring-dropped + %d dma-dropped of %d"
          b.Io_path.processed b.Io_path.dropped b.Io_path.dma_dropped count );
      ( missed <= timeouts,
        Printf.sprintf "accounting: %d missed wakeups exceed %d mwait timeouts"
          missed timeouts );
      (p99 <= 500_000, Printf.sprintf "p99 latency unbounded: %d cycles" p99);
    ],
    [
      ("processed", b.Io_path.processed);
      ("ring_dropped", b.Io_path.dropped);
      ("dma_dropped", b.Io_path.dma_dropped);
      ("mwait_timeouts", timeouts);
      ("missed_wakeups", missed);
      ("fallbacks", site "io.fallback");
      ("recoveries", site "io.recovery");
      ("watchdog_nudges", site "watchdog.nudge");
      ("p50", Histogram.quantile b.Io_path.latencies 0.5);
      ("p99", p99);
    ] )

(* --- the parking lock ----------------------------------------------------- *)

(* Hardware threads hammer one [Park_mwait] lock, each owed a fixed quota
   of increments to a shared counter.  Crash-stops land only inside
   [acquire] (mid-park or at the wake boundary), cold-restarting the body,
   which resumes from durable per-thread progress and re-arms its monitor
   (the ["sync.rearm"] site).  Liveness under lost wakes comes from one of
   two hardenings: a [patience] bound turns a lost delivery into one
   bounded [mwait_for] retry (the ["sync.park_retry"] site), or a
   [watchdog]'s value-preserving re-stores rescue a waiter parked with no
   patience.  The oracles are termination before the horizon and
   grant/increment conservation. *)
let parking_lock ~threads ~quota ~hold ~gap ?patience ~watchdog site =
  let r =
    Contention.run ?patience ~watchdog ~horizon:50_000_000 ~cores:2 ~placement:Rr
      ~threads ~quota:(Each quota) ~section:(Increment hold) ~gap Lock.Park_mwait
  in
  let total = threads * quota in
  let st = r.Contention.stats in
  ( [
      ( r.Contention.counter = total,
        Printf.sprintf "wedged: %d of %d increments before the horizon"
          r.Contention.counter total );
      ( st.Lock.acquires = total,
        Printf.sprintf "conservation: %d grants for %d increments"
          st.Lock.acquires total );
    ],
    [
      ("counter", r.Contention.counter);
      ("grants", st.Lock.acquires);
      ("contended", st.Lock.contended);
      ("parks", st.Lock.parks);
      ("wakes", st.Lock.wakes);
      ("restarts", r.Contention.restarts);
      ("watchdog_nudges", site "watchdog.nudge");
      ("watchdog_sweeps", Option.fold ~none:0 ~some:Watchdog.sweeps r.Contention.watchdog);
    ] )

(* --- the hardware channel ------------------------------------------------- *)

(* A client makes deadline-bounded calls over a channel: a delayed start
   hand-off or a lost response costs a timeout and an idempotent retry,
   never a failed call. *)
let channel_deadline site =
  let calls = 150 in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let ch = Hw_channel.create chip ~core:1 ~server_ptid:10 () in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let ok = ref 0 and errors = ref 0 in
  Chip.attach client (fun th ->
      for _ = 1 to calls do
        match
          Hw_channel.call_with_deadline ch ~client:th ~timeout:8_000 ~work:200 ()
        with
        | Ok () -> incr ok
        | Error _ -> incr errors
      done);
  Chip.boot client;
  Sim.run ~until:50_000_000 sim;
  ( [
      ( !ok = calls,
        Printf.sprintf
          "wedged: %d of %d calls succeeded before the horizon, %d failed \
           despite retries"
          !ok calls !errors );
    ],
    [
      ("calls_ok", !ok);
      ("retries", site "chan.retry");
      ("served", Hw_channel.served ch);
    ] )

(* --- NVMe completion stalls ----------------------------------------------- *)

(* An mwait-driven NVMe consumer keeps 8 commands in flight; a stalled
   completion stretches one command's latency and the deadline-bounded
   mwait covers idle stretches.  Every command completes, with a bounded
   tail. *)
let nvme_stall _site =
  let total = 256 in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let rng = Sl_util.Rng.create 9L in
  let nvme =
    Nvme.create sim p (Chip.memory chip) ~latency:(Dist.Constant 4_000.) ~rng ()
  in
  let completed = ref 0 and idle_timeouts = ref 0 in
  let lat = Histogram.create () in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach th (fun t ->
      Isa.monitor t (Nvme.cq_tail_addr nvme);
      let submitted = ref 0 in
      while !completed < total do
        while !submitted < total && Nvme.in_flight nvme < 8 do
          ignore (Nvme.submit nvme : int);
          incr submitted
        done;
        match Nvme.poll_completion nvme with
        | Some c ->
          incr completed;
          Histogram.record lat (c.Nvme.completed_at - c.Nvme.submitted_at)
        | None -> (
          match Isa.mwait_for t ~deadline:(Sim.now () + 200_000) with
          | Some _ -> ()
          | None -> incr idle_timeouts)
      done);
  Chip.boot th;
  Sim.run ~until:50_000_000 sim;
  let p99 = Histogram.quantile lat 0.99 in
  ( [
      ( !completed = total,
        Printf.sprintf "wedged: %d of %d completions before the horizon"
          !completed total );
      (p99 <= 500_000, Printf.sprintf "p99 latency unbounded: %d cycles" p99);
    ],
    [
      ("completed", !completed);
      ("stalls", Nvme.stall_count nvme);
      ("stall_cycles", Nvme.stall_cycles_total nvme);
      ("idle_timeouts", !idle_timeouts);
      ("p99", p99);
    ] )

(* --- dropped IPIs against the interrupt baseline -------------------------- *)

(* A sender raises one IPI per request; the consumer waits on the
   handler's mailbox with a timeout.  Every IPI is received or counted
   dropped. *)
let ipi_drop _site =
  let n = 200 in
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:1 () in
  let irq = Irq.create sim p ~cores:(Swsched.cores sched) in
  let doorbell = Mailbox.create () in
  let received = ref 0 and timeouts = ref 0 in
  let sender_done = ref false in
  Sim.spawn sim ~name:"ipi-sender" (fun () ->
      for _ = 1 to n do
        Sim.delay 2_000;
        Irq.send_ipi irq ~core:0 ~handler:(fun ~exec ->
            exec 300;
            Mailbox.send doorbell ())
      done;
      sender_done := true);
  Sim.spawn sim ~name:"ipi-consumer" (fun () ->
      let stop = ref false in
      while not !stop do
        match Mailbox.recv_for doorbell ~within:20_000 with
        | Some () -> incr received
        | None ->
          incr timeouts;
          if !sender_done then stop := true
      done);
  Sim.run ~until:50_000_000 sim;
  let dropped = Irq.dropped_ipi_count irq in
  ( [
      ( !received + dropped = n,
        Printf.sprintf "lost IPIs unaccounted: %d received + %d dropped of %d"
          !received dropped n );
    ],
    [
      ("sent", n);
      ("received", !received);
      ("ipi_dropped", dropped);
      ("recv_timeouts", !timeouts);
    ] )

(* --- watchdog rescue of an unhardened mwait loop -------------------------- *)

(* The consumer uses plain mwait with no deadline: under lost wakeups only
   the watchdog's value-preserving re-stores can unwedge it.  Terminating
   before the horizon is the oracle. *)
let watchdog_rescue site =
  let count = 300 in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let nic = Nic.create sim p (Chip.memory chip) ~queue_depth:4096 () in
  let wd =
    Watchdog.create chip ~core:0 ~ptid:99 ~period:10_000 ~stuck_after:15_000 ()
  in
  let processed = ref 0 in
  let consumer = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach consumer (fun th ->
      Isa.monitor th (Nic.rx_tail_addr nic);
      while !processed < count do
        if Nic.pending nic = 0 then ignore (Isa.mwait th);
        let rec drain () =
          match Nic.poll nic with
          | Some _ ->
            Isa.exec th 300;
            incr processed;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      Watchdog.stop wd);
  Chip.boot consumer;
  Watchdog.start wd;
  Openloop.run sim (Sl_util.Rng.create 5L)
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:0.5)
    ~service:(Dist.Constant 300.) ~count
    ~sink:(fun _req -> Sim.schedule sim ~at:(Sim.time sim) (fun () -> Nic.arrive nic));
  Sim.run ~until:50_000_000 sim;
  ( [
      ( !processed = count,
        Printf.sprintf "wedged: %d of %d packets processed before the horizon"
          !processed count );
    ],
    [
      ("processed", !processed);
      ("sweeps", Watchdog.sweeps wd);
      ("nudges", site "watchdog.nudge");
    ] )

(* --- boot.replica: the seeded regression ---------------------------------- *)

type replica_worker = { bell : Memory.addr; mutable job : int option }

(* A deliberate replica of the boot-window race the typed static checker
   eliminated from lib/dist: workers publish themselves to the free pool
   *before* arming their monitor, and a cold restart never requeues the
   orphaned job.  The fault-free schedule passes — the first request
   arrives long after every monitor is armed — but a fault plan that
   lands a lost wakeup or a crash-stop wedges a worker with a job in its
   slot, and the completion count falls short of the offered count.  This
   is the regression the explorer must find and shrink; its allowlist
   entry in staticcheck.allow documents that the bug is load-bearing. *)
let boot_replica _site =
  let count = 60 in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let memory = Chip.memory chip in
  let free = Mailbox.create () in
  let inbox = Mailbox.create () in
  let completed = ref 0 in
  for i = 0 to 3 do
    let worker = { bell = Memory.alloc memory 1; job = None } in
    let th = Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.User () in
    Chip.attach th (fun th ->
        Sim.set_daemon true;
        Mailbox.send free worker;
        Isa.monitor th worker.bell;
        let rec serve () =
          let _ = Isa.mwait th in
          (match worker.job with
          | Some work ->
            worker.job <- None;
            Isa.exec th work;
            incr completed;
            Mailbox.send free worker
          | None -> ());
          serve ()
        in
        serve ());
    Chip.boot th
  done;
  Sim.spawn sim (fun () ->
      Sim.set_daemon true;
      while true do
        let work = Mailbox.recv inbox in
        let worker = Mailbox.recv free in
        worker.job <- Some work;
        Memory.write memory worker.bell 1L
      done);
  let rng = Sl_util.Rng.create 33L in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:0.4)
    ~service:(Dist.Constant 400.) ~count
    ~sink:(fun req -> Mailbox.send inbox req.Openloop.service_cycles);
  Sim.run ~until:4_000_000 sim;
  ( [
      ( !completed = count,
        Printf.sprintf "wedged: %d of %d jobs completed before the horizon"
          !completed count );
    ],
    [ ("completed", !completed) ] )

(* --- registry ------------------------------------------------------------- *)

let crash_cycles_dims =
  [
    ("crash.park_delay", 100, 20_000);
    ("crash.restart_cycles", 1_000, 200_000);
    ("crash.boot_window", 0, 400_000);
  ]

let mwait_crash_cycles_dims =
  ("mwait.spurious_delay", 100, 20_000) :: crash_cycles_dims

let pool_dims =
  [
    "mwait.lost"; "mwait.spurious"; "crash.park"; "crash.wake"; "store.ecc";
    "store.silent";
  ]

let io_dims =
  [
    "nic.doorbell_drop"; "nic.doorbell_dup"; "nic.dma_drop"; "mwait.lost";
    "mwait.spurious"; "crash.park"; "crash.wake"; "store.ecc";
  ]

let lock_dims = [ "mwait.lost"; "mwait.spurious"; "crash.park"; "crash.wake" ]

let entry name prob_dims cycles_dims body =
  { name; prob_dims; cycles_dims; run = guard body }

let all =
  [
    entry "pool.closed" pool_dims mwait_crash_cycles_dims
      (closed_pool ~count:120 ~pool_per_core:8 ~timeout:60_000 ~clients:6
         ~think:6000.0 ~horizon:30_000_000);
    entry "pool.closed.r1" pool_dims mwait_crash_cycles_dims
      (closed_pool ~count:300 ~pool_per_core:16 ~timeout:80_000 ~clients:8
         ~think:8000.0);
    entry "io.hardened" io_dims mwait_crash_cycles_dims
      (hardened_io ~count:150 ~watchdog:false);
    entry "io.hardened.r1" io_dims mwait_crash_cycles_dims
      (hardened_io ~count:400 ~watchdog:false);
    entry "io.watchdog.r1" io_dims mwait_crash_cycles_dims
      (hardened_io ~count:400 ~watchdog:true);
    entry "lock.contended" lock_dims mwait_crash_cycles_dims
      (parking_lock ~threads:6 ~quota:10 ~hold:300 ~gap:200 ~patience:5_000
         ~watchdog:false);
    entry "lock.watchdog.r1" lock_dims mwait_crash_cycles_dims
      (parking_lock ~threads:12 ~quota:25 ~hold:400 ~gap:150 ~watchdog:true);
    entry "channel.deadline"
      [ "start.delay"; "mwait.lost" ]
      [ ("start.delay_cycles", 1_000, 20_000) ]
      channel_deadline;
    entry "nvme.stall" [ "nvme.stall" ]
      [ ("nvme.stall_cycles", 10_000, 200_000) ]
      nvme_stall;
    entry "ipi.drop" [ "ipi.drop" ] [] ipi_drop;
    entry "watchdog.rescue" [ "mwait.lost"; "nic.doorbell_drop" ] []
      watchdog_rescue;
    entry "boot.replica" lock_dims
      [
        ("crash.park_delay", 100, 10_000);
        ("crash.restart_cycles", 1_000, 100_000);
        ("crash.boot_window", 0, 200_000);
      ]
      boot_replica;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all
