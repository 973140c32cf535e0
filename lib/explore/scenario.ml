module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Fault = Sl_fault.Fault
module Analysis = Sl_analysis.Analysis
module Report = Sl_analysis.Report
module Latency = Sl_workload.Latency
module Openloop = Sl_workload.Openloop
module Dist = Sl_util.Dist
module Server = Sl_dist.Server
module Io_path = Sl_os.Io_path
module Lock = Sl_sync.Lock

type outcome = {
  pass : bool;
  reason : string;
  sites : (string * int) list;
}

type t = {
  name : string;
  prob_dims : string list;
  cycles_dims : (string * int * int) list;
  run : Fault.plan -> outcome;
}

let p = Params.default

(* Run one workload body under the full sanitizer set and an ambient
   injector built from [plan], then fold the oracle verdicts, the
   sanitizer findings, the recovery counters and the injected-fault
   counters into one outcome.  The result is a pure function of the
   plan: the sim is deterministic, the injector's streams derive from
   the plan's seed, and the recovery registry is reset on entry. *)
let guard body plan =
  Sl_util.Recovery.reset ();
  let inj = Fault.create plan in
  let verdicts, findings =
    Analysis.with_all (fun () -> Fault.with_ambient inj (fun () -> body ()))
  in
  let sites =
    List.sort compare
      (Sl_util.Recovery.snapshot ()
      @ List.map (fun (k, n) -> ("inj." ^ k, n)) (Fault.counts inj))
  in
  let reasons =
    List.filter_map (fun (ok, why) -> if ok then None else Some why) verdicts
  in
  let reasons =
    if findings = [] then reasons
    else reasons @ [ "sanitizer: " ^ Report.summary findings ]
  in
  match reasons with
  | [] -> { pass = true; reason = ""; sites }
  | rs -> { pass = false; reason = String.concat "; " rs; sites }

(* --- pool.closed: the hardened closed-loop pool --------------------------- *)

(* E16's closed-loop population against the crash-hardened mwait worker
   pool.  The oracles are the end-to-end invariants the hardening is
   supposed to buy: the run terminates before the horizon, every issued
   request is completed or timed out, and the SLO ledger stays
   consistent with the completion count. *)
let pool_closed () =
  let count = 120 in
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
    Server.run_hw_pool_closed ~pool_per_core:8 ~timeout:60_000 ~slo:30_000
      ~horizon:30_000_000 ~clients:6 ~think:(Dist.Exponential 6000.0) cfg
  in
  let lat = r.Server.lat in
  [
    ( r.Server.issued = count,
      Printf.sprintf "stuck: issued %d of %d before the horizon" r.Server.issued
        count );
    ( r.Server.finished + r.Server.c_timed_out = r.Server.issued,
      Printf.sprintf "conservation: %d completed + %d timed out of %d issued"
        r.Server.finished r.Server.c_timed_out r.Server.issued );
    ( lat.Latency.count = r.Server.finished,
      Printf.sprintf "ledger: %d latency samples for %d completions"
        lat.Latency.count r.Server.finished );
    ( lat.Latency.slo_miss <= lat.Latency.count,
      Printf.sprintf "ledger: %d SLO misses exceed %d completions"
        lat.Latency.slo_miss lat.Latency.count );
  ]

(* --- io.hardened: the failure-hardened NIC RX path ------------------------ *)

let io_hardened () =
  let cfg =
    {
      Io_path.default_config with
      Io_path.count = 150;
      service = Dist.Constant 300.0;
    }
  in
  let res =
    Io_path.run
      (Io_path.Mwait_hardened { watchdog = false; horizon = Some 40_000_000 })
      cfg
  in
  let b = res.Io_path.io and r = res.Io_path.recovery in
  let accounted =
    b.Io_path.processed + b.Io_path.dropped + r.Io_path.dma_dropped
  in
  [
    ( accounted = cfg.Io_path.count,
      Printf.sprintf
        "lost requests: %d processed + %d ring-dropped + %d dma-dropped of %d"
        b.Io_path.processed b.Io_path.dropped r.Io_path.dma_dropped
        cfg.Io_path.count );
    ( r.Io_path.missed_wakeups <= r.Io_path.mwait_timeouts,
      Printf.sprintf "accounting: %d missed wakeups exceed %d mwait timeouts"
        r.Io_path.missed_wakeups r.Io_path.mwait_timeouts );
  ]

(* --- lock.contended: the hardened parking lock ---------------------------- *)

(* Six hardware threads contend for one [Park_mwait] lock hardened with a
   patience bound: a lost wake delivery costs one bounded [mwait_for]
   timeout (the ["sync.park_retry"] site) instead of an infinite park, so
   no watchdog is needed.  Crash-stops land only inside [acquire] (mid-
   park or at the wake boundary), cold-restarting the body, which resumes
   from durable per-thread progress and re-arms its monitor (the
   ["sync.rearm"] site).  The oracles are termination before the horizon
   and grant/increment conservation; the explorer is expected to find no
   repro anywhere in this fault space. *)
let lock_contended () =
  let threads = 6 and quota = 10 in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let lock = Lock.create ~patience:5_000 chip Lock.Park_mwait in
  (* A fixed low address: [Memory] auto-grows on the first store. *)
  let counter = 32 in
  let memory = Chip.memory chip in
  let progress = Array.make threads 0 in
  for i = 0 to threads - 1 do
    let th =
      Chip.add_thread chip ~core:(i mod 2) ~ptid:(i + 1) ~mode:Ptid.User ()
    in
    Chip.attach th (fun t ->
        while progress.(i) < quota do
          Lock.acquire lock t;
          let v = Isa.load t counter in
          Isa.exec t 300;
          Isa.store t counter (Int64.add v 1L);
          progress.(i) <- progress.(i) + 1;
          Lock.release lock t;
          Isa.exec t 200
        done);
    Chip.boot th
  done;
  Sim.run ~until:50_000_000 sim;
  let total = threads * quota in
  let counted = Int64.to_int (Memory.read memory counter) in
  let st = Lock.stats lock in
  [
    ( counted = total,
      Printf.sprintf "wedged: %d of %d increments before the horizon" counted
        total );
    ( st.Lock.acquires = total,
      Printf.sprintf "conservation: %d grants for %d increments"
        st.Lock.acquires total );
  ]

(* --- boot.replica: the seeded regression ---------------------------------- *)

type replica_worker = { bell : Memory.addr; mutable job : int option }

(* A deliberate replica of the boot-window race the typed static checker
   (and PR 6) eliminated from lib/dist: workers publish themselves to
   the free pool *before* arming their monitor, and a cold restart never
   requeues the orphaned job.  The fault-free schedule passes — the
   first request arrives long after every monitor is armed — but a fault
   plan that lands a lost wakeup or a crash-stop wedges a worker with a
   job in its slot, and the completion count falls short of the offered
   count.  This is the regression the explorer must find and shrink;
   its allowlist entry in staticcheck.allow documents that the bug is
   load-bearing. *)
let boot_replica () =
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
    ~interarrival:(Openloop.poisson ~rate_per_kcycle:0.4)
    ~service:(Dist.Constant 400.) ~count
    ~sink:(fun req -> Mailbox.send inbox req.Openloop.service_cycles);
  Sim.run ~until:4_000_000 sim;
  [
    ( !completed = count,
      Printf.sprintf "wedged: %d of %d jobs completed before the horizon"
        !completed count );
  ]

(* --- registry ------------------------------------------------------------- *)

let crash_cycles_dims =
  [
    ("crash.park_delay", 100, 20_000);
    ("crash.restart_cycles", 1_000, 200_000);
    ("crash.boot_window", 0, 400_000);
  ]

let all =
  [
    {
      name = "pool.closed";
      prob_dims =
        [
          "mwait.lost"; "mwait.spurious"; "crash.park"; "crash.wake";
          "store.ecc"; "store.silent";
        ];
      cycles_dims = ("mwait.spurious_delay", 100, 20_000) :: crash_cycles_dims;
      run = guard pool_closed;
    };
    {
      name = "io.hardened";
      prob_dims =
        [
          "nic.doorbell_drop"; "nic.doorbell_dup"; "nic.dma_drop";
          "mwait.lost"; "mwait.spurious"; "crash.park"; "crash.wake";
          "store.ecc";
        ];
      cycles_dims = ("mwait.spurious_delay", 100, 20_000) :: crash_cycles_dims;
      run = guard io_hardened;
    };
    {
      name = "lock.contended";
      prob_dims = [ "mwait.lost"; "mwait.spurious"; "crash.park"; "crash.wake" ];
      cycles_dims = ("mwait.spurious_delay", 100, 20_000) :: crash_cycles_dims;
      run = guard lock_contended;
    };
    {
      name = "boot.replica";
      prob_dims = [ "mwait.lost"; "mwait.spurious"; "crash.park"; "crash.wake" ];
      cycles_dims =
        [
          ("crash.park_delay", 100, 10_000);
          ("crash.restart_cycles", 1_000, 100_000);
          ("crash.boot_window", 0, 200_000);
        ];
      run = guard boot_replica;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all
