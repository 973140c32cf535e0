(* R1 — chaos suite: §2 workloads under deterministic fault injection.

   Every fault class of lib/fault runs against the workload whose wakeup
   path it attacks: NIC doorbell/DMA faults and monitor faults against
   the hardened I/O path, start-delay and lost-response faults against
   the robust hardware channel, completion stalls against an NVMe
   consumer, dropped IPIs against the interrupt baseline, and a combined
   chaos plan (plus the watchdog) against everything at once.

   Each scenario runs under the full sanitizer set (race detector +
   invariant sanitizers) regardless of SWITCHLESS_SANITIZE, asserts that
   every request is accounted for (processed or counted lost — never
   silently missing), that no run deadlocks (hardened waits or watchdog
   rescue always terminate), that tail latency stays bounded, and runs
   twice to prove the same plan replays to the identical outcome.

   SWITCHLESS_FAULTS=<spec> replaces the matrix with a single combined
   chaos run under the given plan — the hook the smoke-test alias in the
   root dune file uses to pin one fixed fault schedule. *)

open! Capture
module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Nic = Sl_dev.Nic
module Nvme = Sl_dev.Nvme
module Irq = Sl_baseline.Irq
module Swsched = Sl_baseline.Swsched
module Io_path = Sl_os.Io_path
module Hw_channel = Sl_os.Hw_channel
module Watchdog = Sl_os.Watchdog
module Fault = Sl_fault.Fault
module Analysis = Sl_analysis.Analysis
module Report = Sl_analysis.Report
module Histogram = Sl_util.Histogram
module Rng = Sl_util.Rng
module Dist = Sl_util.Dist
module Openloop = Sl_workload.Openloop
module Latency = Sl_workload.Latency
module Server = Sl_dist.Server
module Memory = Switchless.Memory
module Lock = Sl_sync.Lock

let p = Params.default

let check name cond msg =
  if not cond then failwith (Printf.sprintf "r1/%s: %s" name msg)

let json_escape = Sl_util.Json.escape

(* Run [scenario] twice under sanitizers + ambient injection: fail on any
   sanitizer finding, fail if the replay diverges, print one JSON line.
   [expect] lists fault classes that must actually have fired. *)
let run_scenario ~name ~plan ~expect scenario =
  let once () =
    (* Per-site recovery counters are part of each scenario's outcome —
       and of the replay check: a plan must reproduce not just what it
       broke but exactly how the system healed. *)
    Sl_util.Recovery.reset ();
    let inj = Fault.create plan in
    let summary, findings =
      Analysis.with_all (fun () ->
          Fault.with_ambient inj (fun () -> scenario ~name))
    in
    (summary, findings, Fault.counts inj, Sl_util.Recovery.snapshot ())
  in
  let s1, f1, c1, rc1 = once () in
  let s2, f2, c2, rc2 = once () in
  if f1 <> [] || f2 <> [] then begin
    List.iter (fun f -> Format.printf "%a@." Report.pp f) (f1 @ f2);
    failwith
      (Printf.sprintf "r1/%s: sanitizer findings: %s" name
         (Report.summary (f1 @ f2)))
  end;
  check name
    (s1 = s2 && c1 = c2 && rc1 = rc2)
    "replay diverged: same plan, different outcome";
  List.iter
    (fun key ->
      check name
        (List.mem_assoc key c1)
        (Printf.sprintf "fault class %s never fired" key))
    expect;
  Printf.printf
    "{\"scenario\":%S,\"spec\":%S,\"replay\":\"identical\",\"injected\":{%s},\"recovery\":{%s},%s}\n"
    name
    (json_escape (Fault.to_spec plan))
    (String.concat ","
       (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n) c1))
    (String.concat ","
       (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n) rc1))
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) s1))

(* --- hardened I/O path under NIC / monitor / store faults ---------------- *)

let io_cfg =
  {
    Io_path.default_config with
    Io_path.count = 400;
    service = Sl_util.Dist.Constant 300.0;
  }

let hardened_io ~with_watchdog ~name =
  let res =
    Io_path.run
      (Io_path.Mwait_hardened { watchdog = with_watchdog; horizon = None })
      io_cfg
  in
  let b = res.Io_path.io and r = res.Io_path.recovery in
  let accounted =
    b.Io_path.processed + b.Io_path.dropped + r.Io_path.dma_dropped
  in
  check name
    (accounted = io_cfg.Io_path.count)
    (Printf.sprintf "lost requests: %d processed + %d dropped + %d dma of %d"
       b.Io_path.processed b.Io_path.dropped r.Io_path.dma_dropped
       io_cfg.Io_path.count);
  let p99 = Histogram.quantile b.Io_path.latencies 0.99 in
  check name
    (p99 <= 500_000)
    (Printf.sprintf "p99 latency unbounded: %d cycles" p99);
  [
    ("processed", string_of_int b.Io_path.processed);
    ("ring_dropped", string_of_int b.Io_path.dropped);
    ("dma_dropped", string_of_int r.Io_path.dma_dropped);
    ("mwait_timeouts", string_of_int r.Io_path.mwait_timeouts);
    ("missed_wakeups", string_of_int r.Io_path.missed_wakeups);
    ("fallbacks", string_of_int r.Io_path.fallbacks);
    ("recoveries", string_of_int r.Io_path.recoveries);
    ("watchdog_nudges", string_of_int r.Io_path.watchdog_nudges);
    ("p50", string_of_int (Histogram.quantile b.Io_path.latencies 0.5));
    ("p99", string_of_int p99);
  ]

(* --- robust hardware channel under start-delay / lost-response faults ---- *)

let channel_calls = 150

let channel_deadline ~name =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let ch = Hw_channel.create chip ~core:1 ~server_ptid:10 ~robust:true () in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let ok = ref 0 and errors = ref 0 in
  Chip.attach client (fun th ->
      for _ = 1 to channel_calls do
        match
          Hw_channel.call_with_deadline ch ~client:th ~timeout:8_000
            ~work:200 ()
        with
        | Ok () -> incr ok
        | Error _ -> incr errors
      done);
  Chip.boot client;
  Sim.run sim;
  check name
    (!ok = channel_calls && !errors = 0)
    (Printf.sprintf "%d/%d calls failed despite retries" !errors channel_calls);
  [
    ("calls_ok", string_of_int !ok);
    ("retries", string_of_int (Hw_channel.retry_count ch));
    ("served", string_of_int (Hw_channel.served ch));
  ]

(* --- NVMe completion stalls ---------------------------------------------- *)

let nvme_stall ~name =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let rng = Rng.create 9L in
  let nvme =
    Nvme.create sim p (Chip.memory chip) ~latency:(Dist.Constant 4_000.) ~rng ()
  in
  let total = 256 in
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
  Sim.run sim;
  check name (!completed = total)
    (Printf.sprintf "only %d/%d completions" !completed total);
  let p99 = Histogram.quantile lat 0.99 in
  check name
    (p99 <= 500_000)
    (Printf.sprintf "stalled completion latency unbounded: %d" p99);
  [
    ("completed", string_of_int !completed);
    ("stalls", string_of_int (Nvme.stall_count nvme));
    ("stall_cycles", string_of_int (Nvme.stall_cycles_total nvme));
    ("idle_timeouts", string_of_int !idle_timeouts);
    ("p99", string_of_int p99);
  ]

(* --- dropped IPIs against the interrupt baseline ------------------------- *)

let ipi_drop ~name =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:1 () in
  let irq = Irq.create sim p ~cores:(Swsched.cores sched) in
  let doorbell = Mailbox.create () in
  let n = 200 in
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
  Sim.run sim;
  let dropped = Irq.dropped_ipi_count irq in
  check name
    (!received + dropped = n)
    (Printf.sprintf "lost IPIs unaccounted: %d received + %d dropped of %d"
       !received dropped n);
  [
    ("sent", string_of_int n);
    ("received", string_of_int !received);
    ("ipi_dropped", string_of_int dropped);
    ("recv_timeouts", string_of_int !timeouts);
  ]

(* --- watchdog rescue of an *unhardened* mwait loop ----------------------- *)

(* The consumer uses plain mwait with no deadline: under lost wakeups only
   the watchdog's value-preserving re-stores can unwedge it.  Terminating
   at all is the assertion. *)
let watchdog_rescue ~name =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let nic = Nic.create sim p (Chip.memory chip) ~queue_depth:4096 () in
  let wd = Watchdog.create chip ~core:0 ~ptid:99 ~period:10_000 ~stuck_after:15_000 () in
  let count = 300 in
  let processed = ref 0 in
  let consumer = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach consumer (fun th ->
      Isa.monitor th (Nic.rx_tail_addr nic);
      while !processed < count do
        (if Nic.pending nic = 0 then
           let _ = Isa.mwait th in
           ());
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
  let rng = Rng.create 5L in
  Openloop.run sim rng
    ~interarrival:(Openloop.poisson ~rate_per_kcycle:0.5)
    ~service:(Dist.Constant 300.) ~count
    ~sink:(fun _req -> Sim.fork (fun () -> Nic.inject nic));
  Sim.run sim;
  check name (!processed = count)
    (Printf.sprintf "only %d/%d packets processed" !processed count);
  check name (Watchdog.nudges wd > 0) "watchdog never needed to nudge";
  [
    ("processed", string_of_int !processed);
    ("sweeps", string_of_int (Watchdog.sweeps wd));
    ("nudges", string_of_int (Watchdog.nudges wd));
  ]

(* --- E16's closed-loop workload under chaos ------------------------------ *)

(* The closed-loop population from E16f against the mwait worker pool,
   with per-request timeouts as the only client-side hardening.  A lost
   doorbell wakeup wedges one pool worker forever (the pool shrinks), but
   the client times the request out and moves on: the run must still
   terminate with every request accounted for — completed or timed out,
   never silently missing — and the SLO ledger must stay consistent
   (misses + met = completions, one latency sample per completion). *)
let closed_loop_chaos ~name =
  let cfg =
    {
      Server.params = p;
      seed = 16L;
      cores = 1;
      rate_per_kcycle = 0.0 (* unused: closed loop self-paces *);
      service = Dist.Exponential 1400.0;
      count = 300;
    }
  in
  let slo = 30_000 in
  let r =
    Server.run_hw_pool_closed ~pool_per_core:16 ~timeout:80_000 ~slo ~clients:8
      ~think:(Dist.Exponential 8000.0) cfg
  in
  check name
    (r.Server.issued = cfg.Server.count)
    (Printf.sprintf "only %d/%d requests issued" r.Server.issued cfg.Server.count);
  check name
    (r.Server.finished + r.Server.c_timed_out = cfg.Server.count)
    (Printf.sprintf "lost requests: %d completed + %d timed out of %d"
       r.Server.finished r.Server.c_timed_out cfg.Server.count);
  let lat = r.Server.lat in
  check name
    (lat.Latency.count = r.Server.finished)
    (Printf.sprintf "latency ledger mismatch: %d samples for %d completions"
       lat.Latency.count r.Server.finished);
  check name
    (lat.Latency.slo_miss <= lat.Latency.count)
    (Printf.sprintf "SLO misses exceed completions: %d > %d"
       lat.Latency.slo_miss lat.Latency.count);
  [
    ("issued", string_of_int r.Server.issued);
    ("completed", string_of_int r.Server.finished);
    ("timed_out", string_of_int r.Server.c_timed_out);
    ("slo_miss", string_of_int lat.Latency.slo_miss);
    ("p99", string_of_int lat.Latency.p99);
    ("wall", string_of_int r.Server.wall_cycles);
  ]

(* --- crash-stop: hardware threads die and cold-restart ------------------- *)

(* The closed-loop workload again, but now pool workers crash-stop — at
   the wake boundary (doorbell consumed, request unprocessed: the worst
   spot) and mid-park — and cold-restart through their boot path, which
   re-arms the monitor, requeues the orphaned request and rejoins the
   free pool.  Conservation must survive arbitrary mid-request deaths;
   the recovery counters prove the requeue path actually ran rather than
   the schedule dodging every crash. *)
let crash_restart ~name =
  let summary = closed_loop_chaos ~name in
  check name
    (Sl_util.Recovery.get "server.crash_restart" > 0)
    "no worker ever cold-restarted";
  check name
    (Sl_util.Recovery.get "server.crash_requeue" > 0)
    "no orphaned request was ever requeued";
  summary

(* A correlated crash storm confined to the boot window (the
   crash.boot_window knob): the hardened I/O thread dies repeatedly while
   warming up, then must finish the workload unaided.  Exercises restart
   during the most monitor-rearm-heavy phase. *)
let crash_storm ~name =
  let summary = hardened_io ~with_watchdog:false ~name in
  check name
    (Sl_util.Recovery.get "io.crash_restart" > 0)
    "storm landed no crash restart";
  summary

(* --- lock.storm: the parking lock under lost wakes and crash-stops ------- *)

(* Twelve hardware threads hammer one [Park_mwait] lock, each owed a
   fixed quota of increments to a shared counter.  mwait faults lose and
   forge wake deliveries; crash-stops kill waiters mid-park and at the
   wake boundary, cold-restarting each through its body, which resumes
   from a per-thread durable progress counter.  The lock parks with no
   patience on purpose: liveness rests entirely on the release store and
   the watchdog's value-preserving re-stores (a lost wake loses only the
   delivery — memory state stays current, so the woken re-check loop
   recovers).  Conservation is the assertion: the counter must end at
   exactly threads x quota, every grant matched by one increment,
   however many incarnations it took. *)
let lock_storm ~name =
  let threads = 12 and quota = 25 in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let lock = Lock.create chip Lock.Park_mwait in
  let wd =
    Watchdog.create chip ~core:1 ~ptid:99 ~period:8_000 ~stuck_after:12_000 ()
  in
  (* A fixed low address: [Memory] auto-grows on the first store. *)
  let counter = 32 in
  let memory = Chip.memory chip in
  let progress = Array.make threads 0 in
  let lives = Array.make threads 0 in
  let finished = Array.make threads false in
  let done_threads = ref 0 in
  for i = 0 to threads - 1 do
    let th =
      Chip.add_thread chip ~core:(i mod 2) ~ptid:(i + 1) ~mode:Ptid.User ()
    in
    Chip.attach th (fun t ->
        lives.(i) <- lives.(i) + 1;
        while progress.(i) < quota do
          Lock.acquire lock t;
          let v = Isa.load t counter in
          Isa.exec t 400;
          Isa.store t counter (Int64.add v 1L);
          progress.(i) <- progress.(i) + 1;
          Lock.release lock t;
          Isa.exec t 150
        done;
        (* Crashes land only inside [acquire] (park or wake boundary),
           so exactly one incarnation per thread reaches this point. *)
        if not finished.(i) then begin
          finished.(i) <- true;
          incr done_threads;
          if !done_threads = threads then Watchdog.stop wd
        end);
    Chip.boot th
  done;
  Watchdog.start wd;
  Sim.run sim;
  let total = threads * quota in
  let counted = Int64.to_int (Memory.read memory counter) in
  check name (counted = total)
    (Printf.sprintf "counter not conserved: %d of %d increments" counted total);
  let st = Lock.stats lock in
  check name
    (st.Lock.acquires = total)
    (Printf.sprintf "grants != increments: %d grants for %d" st.Lock.acquires
       total);
  let restarts = Array.fold_left (fun a l -> a + l - 1) 0 lives in
  check name (restarts > 0) "storm never killed a lock waiter";
  check name
    (Sl_util.Recovery.get "sync.rearm" > 0)
    "no restarted waiter ever re-armed its monitor";
  [
    ("counter", string_of_int counted);
    ("grants", string_of_int st.Lock.acquires);
    ("contended", string_of_int st.Lock.contended);
    ("parks", string_of_int st.Lock.parks);
    ("wakes", string_of_int st.Lock.wakes);
    ("restarts", string_of_int restarts);
    ("watchdog_nudges", string_of_int (Watchdog.nudges wd));
    ("watchdog_sweeps", string_of_int (Watchdog.sweeps wd));
  ]

(* --- the matrix ---------------------------------------------------------- *)

let chaos_plan =
  {
    Fault.none with
    Fault.seed = 110L;
    nic_doorbell_drop = 0.05;
    nic_doorbell_dup = 0.05;
    nic_dma_drop = 0.02;
    mwait_lost = 0.1;
    mwait_spurious = 0.1;
    store_ecc = 0.05;
    store_silent = 0.02;
  }

let scenarios =
  [
    ( "baseline",
      { Fault.none with Fault.seed = 101L },
      [],
      hardened_io ~with_watchdog:false );
    ( "nic.doorbell_drop",
      { Fault.none with Fault.seed = 102L; nic_doorbell_drop = 0.08 },
      [ "nic.doorbell_drop" ],
      hardened_io ~with_watchdog:false );
    ( "nic.doorbell_dup",
      { Fault.none with Fault.seed = 103L; nic_doorbell_dup = 0.08 },
      [ "nic.doorbell_dup" ],
      hardened_io ~with_watchdog:false );
    ( "nic.dma_drop",
      { Fault.none with Fault.seed = 104L; nic_dma_drop = 0.05 },
      [ "nic.dma_drop" ],
      hardened_io ~with_watchdog:false );
    ( "mwait.lost",
      { Fault.none with Fault.seed = 105L; mwait_lost = 0.15 },
      [ "mwait.lost" ],
      hardened_io ~with_watchdog:false );
    ( "mwait.spurious",
      { Fault.none with Fault.seed = 106L; mwait_spurious = 0.2 },
      [ "mwait.spurious" ],
      hardened_io ~with_watchdog:false );
    ( "store.corruption",
      { Fault.none with Fault.seed = 107L; store_ecc = 0.1; store_silent = 0.05 },
      [ "store.ecc"; "store.silent" ],
      hardened_io ~with_watchdog:false );
    ( "start.delay",
      { Fault.none with Fault.seed = 108L; start_delay = 0.25; mwait_lost = 0.1 },
      [ "start.delay"; "mwait.lost" ],
      channel_deadline );
    ( "nvme.stall",
      { Fault.none with Fault.seed = 109L; nvme_stall = 0.1 },
      [ "nvme.stall" ],
      nvme_stall );
    ( "ipi.drop",
      { Fault.none with Fault.seed = 111L; ipi_drop = 0.1 },
      [ "ipi.drop" ],
      ipi_drop );
    ( "watchdog.rescue",
      { Fault.none with Fault.seed = 112L; mwait_lost = 0.5; nic_doorbell_drop = 0.3 },
      [ "mwait.lost" ],
      watchdog_rescue );
    ( "closedloop.chaos",
      { Fault.none with Fault.seed = 113L; mwait_lost = 0.05; mwait_spurious = 0.05 },
      [ "mwait.lost" ],
      closed_loop_chaos );
    ( "crash.restart",
      { Fault.none with Fault.seed = 114L; crash_wake = 0.12; crash_park = 0.05 },
      [ "crash.wake" ],
      crash_restart );
    ( "crash.storm",
      {
        Fault.none with
        Fault.seed = 115L;
        crash_park = 0.4;
        crash_wake = 0.1;
        crash_boot_window = 150_000;
      },
      [ "crash.park" ],
      crash_storm );
    ( "lock.storm",
      {
        Fault.none with
        Fault.seed = 116L;
        mwait_lost = 0.25;
        mwait_spurious = 0.1;
        crash_park = 0.15;
        crash_wake = 0.1;
      },
      [ "mwait.lost"; "crash.park"; "crash.wake" ],
      lock_storm );
    ("chaos", chaos_plan, [ "nic.doorbell_drop"; "mwait.lost" ],
      hardened_io ~with_watchdog:true );
  ]

let run () =
  (match Sys.getenv_opt "SWITCHLESS_FAULTS" with
  | Some spec -> (
    match Fault.parse_spec spec with
    | Error msg -> failwith ("r1: SWITCHLESS_FAULTS: " ^ msg)
    | Ok plan ->
      run_scenario ~name:"env-chaos" ~plan ~expect:[]
        (hardened_io ~with_watchdog:true);
      run_scenario ~name:"env-closedloop" ~plan ~expect:[] closed_loop_chaos)
  | None ->
    List.iter
      (fun (name, plan, expect, scenario) ->
        run_scenario ~name ~plan ~expect scenario)
      scenarios);
  (* Scenario recovery counts were reported per-scenario above; leave the
     harness-level trailer (bench/main.ml) empty for r1. *)
  Sl_util.Recovery.reset ();
  Printf.printf
    "r1: all scenarios survived: no findings, no deadlocks, no lost requests, replays identical\n\n"
