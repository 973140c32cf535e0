(* Bechamel micro-benchmarks: wall-clock cost of each experiment's
   simulation kernel (and of the hot simulator primitives they stress).
   One Test.make per table/figure, so regressions in simulator speed are
   visible alongside the simulated results. *)

open Bechamel
open Toolkit

module Sim = Sl_engine.Sim
module Wheel = Sl_engine.Wheel
module Histogram = Sl_util.Histogram
module Json = Sl_util.Json
module Io_path = Sl_os.Io_path
module Contention = Sl_os.Contention
module Server = Sl_dist.Server
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core

let p = Params.default

(* -- thread-scaling kernels: park/wake cost vs resident thread count --

   The flat chip layer's contract is that a wakeup touches O(1) state no
   matter how many threads are resident, so per-wake cost at 2000
   threads must stay close to the 64-thread cost.  Two access patterns
   bound the space: [hot] always wakes the same thread (its context
   stays register-file-resident — the all-RF fast path), [rr] wakes all
   N in round-robin (every wake climbs the storage ladder and demotes a
   victim — the worst case for the state store and the dense arrays).

   Timed directly (not via bechamel): the chip boot storm at N=2000 is
   ~100x the cost of the wake phase, so a whole-closure benchmark would
   measure setup, not wakes.  We build the world once, drain the boot
   storm, then wall-clock the wake phase alone over enough rounds to
   amortize clock noise. *)

let scaling_counts = [ 64; 512; 2000 ]
let scaling_wakes = 6_000  (* total wakes timed, whatever N *)

let time_wakes b ~pattern n =
  let sim = Sim.create () in
  let params = { p with Params.monitor_capacity_per_core = 1_000_000 } in
  let chip = Chip.create sim params ~cores:1 in
  let memory = Chip.memory chip in
  let doorbells = Array.init n (fun _ -> Memory.alloc memory 1) in
  for i = 0 to n - 1 do
    let th = Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.User () in
    Chip.attach th (fun t ->
        Isa.monitor t doorbells.(i);
        let rec loop () =
          let _ = Isa.mwait t in
          loop ()
        in
        loop ());
    Chip.boot th
  done;
  let boot_horizon = max 1000 (20 * n) in
  let gap = 400 in
  Sim.spawn sim (fun () ->
      Sim.delay boot_horizon;
      for k = 0 to scaling_wakes - 1 do
        let i = match pattern with `Hot -> 0 | `Round_robin -> k mod n in
        Memory.write memory doorbells.(i) 1L;
        Sim.delay gap
      done);
  (* Drain the boot storm outside the timed window. *)
  Sim.run ~until:boot_horizon sim;
  let ev0 = Sim.events_processed sim in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run ~until:(boot_horizon + (scaling_wakes * gap) + 1000) sim;
  let t1 = Unix.gettimeofday () in
  let events = Sim.events_processed sim - ev0 in
  let words = Gc.minor_words () -. w0 in
  Printf.bprintf b "  [diag n=%d] events/wake %.2f  words/wake %.1f\n%!" n
    (float_of_int events /. float_of_int scaling_wakes)
    (words /. float_of_int scaling_wakes);
  let ns_per_wake = (t1 -. t0) *. 1e9 /. float_of_int scaling_wakes in
  (ns_per_wake, events)

let scaling_rows b =
  List.concat_map
    (fun n ->
      List.map
        (fun (tag, pattern) ->
          let ns, _events = time_wakes b ~pattern n in
          (Printf.sprintf "scaling:wake %s n=%d" tag n, ns))
        [ ("hot", `Hot); ("rr", `Round_robin) ])
    scaling_counts

(* -- lock-scaling kernels: simulator cost per handoff vs waiter count --

   Companion to the wake-scaling rows for lib/sync: wall-clock cost of
   simulating one lock handoff as the contender pool grows.  The
   mwait-native kinds must stay near-flat — a blocked waiter is a parked
   thread that costs nothing until its grant store lands, and the grant
   itself rides the O(1) chip wake path — while a spinlock's blocked
   waiters are live polling loops, so its per-handoff simulation cost
   grows with n.  Each point times one whole [Contention.run], so the
   timed window includes building the world and booting every
   contender. *)

let lock_scaling_counts = [ 64; 512; 2000 ]
let lock_scaling_kinds = Sl_sync.Lock.[ Ticket; Mcs_mwait; Park_mwait ]

(* Per-handoff cost is the metric, so the timed acquire count can shrink
   as the pool grows: the spin and herd kinds cost O(n) wall clock per
   handoff, and 2000 contenders at the n=64 budget would dominate the
   whole micro run.  The drain phase (every contender pays one final
   empty acquire to observe termination) is part of the timed window and
   dominates the handoff count once n outgrows the quota, so cost is
   normalized by the lock's own acquire counter, not the quota.
   [Park_mwait] stops at 512: its thundering herd re-wakes the whole
   pool per handoff, so the n=2000 point alone costs ~1 wall-clock
   minute for a shape already unmistakable at 64 -> 512 — the row is
   omitted, not sampled thinner. *)
let lock_scaling_acquires n = if n <= 64 then 1_200 else if n <= 512 then 600 else 300

let lock_scaling_counts_for kind =
  match kind with
  | Sl_sync.Lock.Park_mwait -> List.filter (fun n -> n <= 512) lock_scaling_counts
  | _ -> lock_scaling_counts

let time_lock ~kind ~placement n =
  let t0 = Unix.gettimeofday () in
  let r =
    Contention.run ~cores:2 ~placement ~threads:n
      ~quota:(Shared (lock_scaling_acquires n)) ~section:(Increment 300) ~gap:0 kind
  in
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int r.Contention.stats.Sl_sync.Lock.acquires

let lock_scaling_rows () =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun (tag, placement) ->
          List.map
            (fun n ->
              let ns = time_lock ~kind ~placement n in
              ( Printf.sprintf "scaling:lock.%s %s n=%d"
                  (Sl_sync.Lock.kind_name kind) tag n,
                ns ))
            (lock_scaling_counts_for kind))
        [ ("hot", Contention.Hot); ("rr", Contention.Rr) ])
    lock_scaling_kinds

(* -- primitive kernels -- *)

(* Hand every tick up to [limit] to the ready chain and pop it, as
   Sim's run loop does. *)
let rec drain_wheel q ~limit =
  while Wheel.ready q do
    ignore (Wheel.pop q)
  done;
  if Wheel.advance q ~limit >= 0 then drain_wheel q ~limit

let bench_wheel =
  Test.make ~name:"primitive:wheel push/pop x1k"
    (Staged.stage (fun () ->
         let q = Wheel.create ~dummy:0 in
         for i = 0 to 999 do
           Wheel.push q ~time:((i * 7919) mod 1000) i
         done;
         drain_wheel q ~limit:max_int))

(* The motivating case for the wheel: near-term churn while thousands of
   far-future deadlines (parked threads) sit in the same queue.  A binary
   heap pays ~log(ballast) sift steps on every operation; the wheel
   parks the ballast in an outer level and keeps the hot tick O(1). *)
let bench_wheel_ballast =
  Test.make ~name:"primitive:wheel push/pop x1k under 2k far ballast"
    (Staged.stage (fun () ->
         let q = Wheel.create ~dummy:0 in
         for i = 0 to 1_999 do
           Wheel.push q ~time:(10_000_000 + (i * 1000)) (-1)
         done;
         for i = 0 to 999 do
           Wheel.push q ~time:((i * 7919) mod 1000) i
         done;
         drain_wheel q ~limit:999))

(* Every event at the cursor's tick, as a wake's hop is: each push
   goes straight to the ready chain and the next pop takes it. *)
let bench_wheel_same_tick =
  let q = Wheel.create ~dummy:0 in
  Test.make ~name:"primitive:wheel same-tick push/pop x1k"
    (Staged.stage (fun () ->
         for i = 0 to 999 do
           Wheel.push q ~time:0 i;
           ignore (Sys.opaque_identity (Wheel.pop q))
         done))

let bench_histogram =
  Test.make ~name:"primitive:histogram record x1k"
    (Staged.stage (fun () ->
         let h = Histogram.create () in
         for i = 1 to 1000 do
           Histogram.record h (i * i)
         done;
         ignore (Histogram.quantile h 0.99)))

(* A lone process on an idle world: each [delay] continues inline
   ([Sim.skip_to]) and pops no event.  The await and suspend rows below
   measure the event path. *)
let bench_sim_pingpong =
  Test.make ~name:"primitive:engine 1k event ping-pong"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sim.delay 1
             done);
         Sim.run sim))

(* The polling pattern, a short fixed delay per loop turn, with nothing
   else due: every delay continues inline, as in the row above. *)
let bench_sim_delay_hops =
  Test.make ~name:"primitive:engine near-future delay hops"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sim.delay 20
             done);
         Sim.run sim))

(* Every hop is an [await] resumed at the same tick: the ready chain's
   push/pop plus the effect suspend/resume around it. *)
let bench_sim_await_hops =
  Test.make ~name:"primitive:engine 1k same-tick await/resume hops"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sim.await (fun resume -> resume ())
             done);
         Sim.run sim))

(* The same hops through [suspend]/[wake]: the process's preallocated
   resume, so a hop allocates only the runtime's continuation. *)
let bench_sim_suspend_hops =
  let wake_at_once = Sim.suspension Sim.wake in
  Test.make ~name:"primitive:engine 1k same-tick suspend/wake hops"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sim.suspend wake_at_once
             done);
         Sim.run sim))

(* 64 unit-weight threads time-sharing a 2-wide core: every advance
   serves up to 64 jobs on [Smt_core]'s uniform-rate path (the scenario
   of test/core's allocation bound). *)
let bench_smt_core_churn =
  Test.make ~name:"primitive:smt_core 64 unit-weight jobs x200 executes"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let core = Smt_core.create sim { p with Params.smt_width = 2 } ~core_id:0 in
         for ptid = 0 to 63 do
           let cycles = 50 + (ptid * 37 mod 101) in
           let slot = Smt_core.add_slot core ~ptid in
           Sim.spawn sim (fun () ->
               Smt_core.set_runnable core ~slot ~weight:1.0 true;
               for _ = 1 to 200 do
                 Smt_core.execute core ~slot ~kind:Smt_core.Useful cycles
               done)
         done;
         Sim.run sim))

(* The same churn with the kinds mixed, thread [p] executing kind
   [p mod 3]: the serve pass's per-kind branch, as lock-contend's
   spinning, parked and critical-section threads take it. *)
let bench_smt_core_mixed_kinds =
  let kinds = [| Smt_core.Useful; Smt_core.Poll; Smt_core.Overhead |] in
  Test.make ~name:"primitive:smt_core 64 jobs of mixed kinds x200 executes"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let core = Smt_core.create sim { p with Params.smt_width = 2 } ~core_id:0 in
         for ptid = 0 to 63 do
           let cycles = 50 + (ptid * 37 mod 101) and kind = kinds.(ptid mod 3) in
           let slot = Smt_core.add_slot core ~ptid in
           Sim.spawn sim (fun () ->
               Smt_core.set_runnable core ~slot ~weight:1.0 true;
               for _ = 1 to 200 do
                 Smt_core.execute core ~slot ~kind cycles
               done)
         done;
         Sim.run sim))

(* One thread executing 1,000 one-cycle jobs alone on a core.  On an
   idle world every [execute] continues inline ([Sim.skip_to]): no
   event, no suspension.  A callback every tick keeps an event due, so
   the same kernel pays each job's completion event, wake hop and
   suspend/resume, plus one heartbeat event.  The pair shows what an
   [execute] costs with and without the skip. *)
let smt_core_lone_job ~heartbeat =
  let name =
    if heartbeat then "primitive:smt_core lone job x1k executes, 1-cycle heartbeat"
    else "primitive:smt_core lone job x1k executes, idle world"
  in
  Test.make ~name
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let core = Smt_core.create sim p ~core_id:0 in
         let jobs = 1000 in
         if heartbeat then begin
           let rec beat () =
             let now = Sim.time sim in
             if now < jobs then Sim.schedule sim ~at:(now + 1) beat
           in
           Sim.schedule sim ~at:0 beat
         end;
         let slot = Smt_core.add_slot core ~ptid:1 in
         Sim.spawn sim (fun () ->
             Smt_core.set_runnable core ~slot ~weight:1.0 true;
             for _ = 1 to jobs do
               Smt_core.execute core ~slot ~kind:Smt_core.Useful 1
             done);
         Sim.run sim))

(* Setting up 1,000 hardware threads on one core, as test/core's
   paper-scale check does per ptid: [add_thread], [attach] and [boot]
   each, then the run until every thread is armed on its own doorbell
   and parked in mwait. *)
let bench_chip_setup =
  Test.make ~name:"primitive:chip set-up x1k"
    (Staged.stage (fun () ->
         let n = 1_000 in
         let sim = Sim.create () in
         let chip = Chip.create sim p ~cores:1 in
         let base = Memory.alloc (Chip.memory chip) n in
         let body th =
           Isa.monitor th (base + Chip.ptid th - 1);
           ignore (Isa.mwait th : Memory.addr)
         in
         for ptid = 1 to n do
           let th = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.User () in
           Chip.attach th body;
           Chip.boot th
         done;
         Sim.run sim))

(* A receiver blocked in [recv] and a sender that sends it one item a
   tick: each round parks the receiver on the mailbox's wait queue and
   hands it the item. *)
let bench_mailbox_blocked =
  Test.make ~name:"primitive:mailbox blocked recv/send x1k"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let mb = Sl_engine.Mailbox.create () in
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sl_engine.Mailbox.recv mb
             done);
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sim.delay 1;
               Sl_engine.Mailbox.send mb ()
             done);
         Sim.run sim))

(* One software thread executing 1,000 short slices on an otherwise idle
   two-core scheduler: each exec takes the idle context it ran last and
   gives it back. *)
let bench_swsched_exec =
  Test.make ~name:"primitive:swsched exec x1k"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let sched = Sl_baseline.Swsched.create sim p ~cores:2 () in
         let th = Sl_baseline.Swsched.thread sched () in
         Sim.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Sl_baseline.Swsched.exec th 10
             done);
         Sim.run sim))

let bench_rng_int =
  let rng = Sl_util.Rng.create 1L in
  Test.make ~name:"primitive:rng int x1k"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Sys.opaque_identity (Sl_util.Rng.int rng 1_000))
         done))

(* -- one kernel per experiment table/figure -- *)

let tiny_io count rate =
  let arrivals = Sl_workload.Arrivals.poisson ~rate_per_kcycle:rate in
  { Io_path.default_config with Io_path.count; arrivals }

let bench_e1 =
  Test.make ~name:"E1:timer wakeup x200"
    (Staged.stage (fun () ->
         ignore (Io_path.timer_wakeup_mwait p ~ticks:200 ~period:5_000)))

let bench_e2 =
  Test.make ~name:"E2:io sweep point (mwait, 500 pkts)"
    (Staged.stage (fun () -> ignore (Io_path.run Io_path.Mwait (tiny_io 500 0.4))))

let bench_e2_polling =
  Test.make ~name:"E2:io sweep point (polling, 500 pkts)"
    (Staged.stage (fun () -> ignore (Io_path.run Io_path.Polling (tiny_io 500 0.4))))

let bench_e2_interrupt =
  Test.make ~name:"E2:io sweep point (interrupt, 500 pkts)"
    (Staged.stage (fun () -> ignore (Io_path.run Io_path.Irq (tiny_io 500 0.4))))

let bench_e7 =
  Test.make ~name:"E7:server point (hw pool, 500 reqs)"
    (Staged.stage (fun () ->
         ignore
           (Server.run_hw_pool
              {
                Server.params = p;
                seed = 5L;
                cores = 2;
                rate_per_kcycle = 0.5;
                service = Sl_util.Dist.Exponential 2000.0;
                count = 500;
              })))

let bench_e13 =
  Test.make ~name:"E13:vm timeshare point (hw, 1 Mcycle)"
    (Staged.stage (fun () ->
         ignore (Sl_os.Vm.hw_timeshare p ~vms:2 ~vcpus:2 ~slice:20_000 ~duration:1_000_000)))

let bench_e15 =
  Test.make ~name:"E15:netstack 100 segments, 10% loss"
    (Staged.stage (fun () ->
         ignore (Sl_os.Netstack.run ~seed:1L ~loss:0.1 ~params:p ~segments:100 ())))

let all_tests =
  Test.make_grouped ~name:"switchless"
    [
      bench_wheel;
      bench_wheel_ballast;
      bench_wheel_same_tick;
      bench_histogram;
      bench_sim_pingpong;
      bench_sim_delay_hops;
      bench_sim_await_hops;
      bench_sim_suspend_hops;
      bench_smt_core_churn;
      bench_smt_core_mixed_kinds;
      smt_core_lone_job ~heartbeat:false;
      smt_core_lone_job ~heartbeat:true;
      bench_chip_setup;
      bench_mailbox_blocked;
      bench_swsched_exec;
      bench_rng_int;
      bench_e1;
      bench_e2;
      bench_e2_polling;
      bench_e2_interrupt;
      bench_e7;
      bench_e13;
      bench_e15;
    ]

(* When set (via bench/main.ml's -micro-out), [run] also writes the rows
   as a JSON artifact, which CI archives per run. *)
let json_out : string option ref = ref None

let write_json ~path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.obj
           [
             ("schema", Json.quote "switchless-microbench/1");
             ( "results",
               Json.arr
                 (List.map
                    (fun (name, ns) ->
                      Json.obj
                        [ ("name", Json.quote name); ("ns_per_run", Json.float ns) ])
                    rows) );
           ]);
      output_char oc '\n')

let run b =
  Buffer.add_string b "== Microbenchmarks (bechamel; wall-clock per simulated kernel) ==\n";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] all_tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  let rows = rows @ scaling_rows b @ lock_scaling_rows () in
  List.iter
    (fun (name, ns) -> Printf.bprintf b "  %-45s %12.0f ns/run\n" name ns)
    rows;
  (match !json_out with None -> () | Some path -> write_json ~path rows);
  Buffer.add_char b '\n'
