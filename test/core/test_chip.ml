(* Integration tests for the full chip: timed mwait wakeups, start/stop,
   remote registers, TDT-mediated permissions, exception chains. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Memory = Switchless.Memory
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Tdt = Switchless.Tdt
module Regstate = Switchless.Regstate
module Exception_desc = Switchless.Exception_desc

let check_i64 = Alcotest.(check int64)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

(* Expected one-way hardware wakeup latency when state is RF-resident. *)
let mwait_wake_latency = p.Params.monitor_wake_cycles + p.Params.pipeline_start_cycles
let start_latency = p.Params.pipeline_start_cycles

let setup ?(cores = 2) () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores in
  (sim, chip)

let test_mwait_wakeup_latency () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let woke_at = ref 0 and woke_addr = ref (-1) in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach a (fun th ->
      Isa.monitor th addr;
      let hit = Isa.mwait th in
      woke_addr := hit;
      woke_at := Sim.now ());
  Chip.boot a;
  Sim.spawn sim (fun () ->
      Sim.delay 100;
      Memory.write mem addr 7L);
  Sim.run sim;
  check_int "woken by the armed address" addr !woke_addr;
  (* monitor(4) + mwait issue(4) happen before t=100; wake at write +
     match(6) + RF transfer(0) + pipeline start(20). *)
  check_int "wake latency" (100 + mwait_wake_latency) !woke_at;
  check_int "one wakeup counted" 1 (Chip.wakeup_count a)

let test_mwait_immediate_when_write_raced_ahead () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let woke_at = ref 0 in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach a (fun th ->
      Isa.monitor th addr;
      (* Simulate doing other work while the device writes. *)
      Isa.exec th 200;
      let _ = Isa.mwait th in
      woke_at := Sim.now ());
  Chip.boot a;
  Sim.spawn sim (fun () ->
      Sim.delay 50;
      Memory.write mem addr 1L);
  Sim.run sim;
  (* monitor(4) + work(200) + mwait issue(4) + immediate match(6) = 214;
     no pipeline restart because the thread never left the pipeline. *)
  check_int "no sleep, no restart cost" 214 !woke_at

let test_dma_write_wakes_like_cpu_write () =
  (* The same wakeup path regardless of who wrote: here the "device" is a
     bare simulation process, standing in for a DMA engine. *)
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let rx_tail = Memory.alloc mem 1 in
  let wakes = ref [] in
  let net = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach net (fun th ->
      Isa.monitor th rx_tail;
      for _ = 1 to 3 do
        let _ = Isa.mwait th in
        let wake_time = Sim.now () in
        wakes := wake_time :: !wakes
      done);
  Chip.boot net;
  Sim.spawn sim (fun () ->
      List.iter
        (fun t ->
          Sim.delay t;
          Memory.write mem rx_tail 1L)
        [ 1000; 1000; 1000 ]);
  Sim.run sim;
  check_int "three wakeups" 3 (List.length !wakes);
  check_int "first" (1000 + mwait_wake_latency) (List.nth !wakes 2);
  check_int "second" (2000 + mwait_wake_latency) (List.nth !wakes 1)

let test_start_latency_and_body_spawn () =
  let sim, chip = setup () in
  let started_at = ref 0 in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let b = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach b (fun _ -> started_at := Sim.now ());
  Chip.attach a (fun th -> Isa.start th ~vtid:2);
  Chip.boot a;
  Sim.run sim;
  (* Caller: issue(4).  Target: RF transfer(0) + pipeline start(20). *)
  check_int "start-to-run latency"
    (p.Params.start_stop_issue_cycles + start_latency)
    !started_at;
  check_int "start counted" 1 (Chip.start_count b)

let test_stop_freezes_and_start_resumes_execution () =
  let sim, chip = setup () in
  let finished_at = ref 0 in
  let victim = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach victim (fun th ->
      Isa.exec th 1000;
      finished_at := Sim.now ());
  Chip.boot victim;
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Sim.delay 200;
      Isa.stop th ~vtid:2;
      Sim.delay 496;
      Isa.start th ~vtid:2);
  Chip.boot boss;
  Sim.run sim;
  (* victim runs 0..204 (stop lands after boss's 4-cycle issue), frozen
     204..704 (stop at 200+4, start issued at 700+4, wake +20 → resumes
     at 724), then finishes remaining 796 cycles at 1520. *)
  check_int "froze and resumed" 1520 !finished_at;
  check_bool "disabled while frozen" true (Chip.halted chip = None)

let test_stop_of_waiting_thread_and_restart_reparks () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let woke = ref false in
  let waiter = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach waiter (fun th ->
      Isa.monitor th addr;
      let _ = Isa.mwait th in
      woke := true);
  Chip.boot waiter;
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Sim.delay 100;
      Isa.stop th ~vtid:2;
      (* The event arrives while the waiter is force-stopped. *)
      Sim.delay 100;
      Isa.store th addr 1L;
      Sim.delay 100;
      Isa.start th ~vtid:2);
  Chip.boot boss;
  Sim.run sim;
  check_bool "event latched across stop window" true !woke

let test_start_latches_against_inflight_stop () =
  (* A start issued while the target is still running absorbs the
     target's own subsequent self-stop: the request is never lost. *)
  let sim, chip = setup () in
  let served = ref 0 in
  let server = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach server (fun th ->
      let rec serve () =
        (* The exec blocks while parked, so completions count requests. *)
        Isa.exec th 100;
        incr served;
        (* Self-park; if a start raced ahead, keep serving. *)
        Isa.stop th ~vtid:2;
        serve ()
      in
      serve ());
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach client (fun th ->
      Isa.start th ~vtid:2;
      (* Second start lands while the server is still mid-request. *)
      Sim.delay 50;
      Isa.start th ~vtid:2);
  Chip.boot client;
  Sim.run sim;
  check_int "both requests served" 2 !served;
  check_bool "server parked at the end" true (Chip.state server = Ptid.Disabled)

(* A spurious wake, injected for ptid 2 alone, unparks that thread's
   Monitor slot through [take_waiter] and wakes that thread, with the
   first address it armed; its neighbours on the core stay parked, and
   a later doorbell still reaches the thread it names through the
   chip's one Monitor waiter. *)
let test_spurious_wake_reaches_its_thread () =
  let sim, chip = setup () in
  let injected = ref [] in
  Chip.set_fault_hooks chip
    {
      Chip.spurious_wake_after = (fun ~ptid -> if ptid = 2 then Some 500 else None);
      start_extra_cycles = (fun ~ptid:_ -> 0);
      crash_park_after = (fun ~ptid:_ -> None);
      crash_at_wake = (fun ~ptid:_ -> None);
    };
  Chip.set_probe chip (function
    | Switchless.Probe.Fault_injected { ptid; kind } -> injected := (ptid, kind) :: !injected
    | _ -> ());
  let mem = Chip.memory chip in
  let bell = Array.init 4 (fun _ -> Memory.alloc mem 1) and spare = Memory.alloc mem 1 in
  let woke = ref [] in
  let threads =
    List.map
      (fun ptid ->
        let th = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.User () in
        Chip.attach th (fun th ->
            Isa.monitor th bell.(ptid);
            Isa.monitor th spare;
            let a = Isa.mwait th in
            woke := (ptid, a) :: !woke);
        Chip.boot th;
        th)
      [ 1; 2; 3 ]
  in
  Sim.run sim;
  Alcotest.(check (list (pair int string)))
    "one spurious wake, for ptid 2" [ (2, "mwait-spurious") ] !injected;
  Alcotest.(check (list (pair int int)))
    "ptid 2 woke with its first armed address" [ (2, bell.(2)) ] !woke;
  List.iter
    (fun th ->
      let woken = Chip.ptid th = 2 in
      check_int (Printf.sprintf "ptid %d wakeups" (Chip.ptid th)) (Bool.to_int woken)
        (Chip.wakeup_count th);
      check_bool (Printf.sprintf "ptid %d parked" (Chip.ptid th)) (not woken)
        (Chip.state th = Ptid.Waiting))
    threads;
  Sim.schedule sim ~at:(Sim.time sim) (fun () -> Memory.write mem bell.(3) 1L);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "a doorbell still wakes the thread it names" [ (3, bell.(3)); (2, bell.(2)) ] !woke

(* A start hand-off delayed past the caller's retry: the retry's start
   makes the target runnable first, and the late hand-off must then
   change no state — only spawn the body, which it still owns as the
   first start. *)
let test_delayed_start_overtaken_by_retry () =
  let sim, chip = setup () in
  let delayed = ref false in
  Chip.set_fault_hooks chip
    {
      Chip.spurious_wake_after = (fun ~ptid:_ -> None);
      start_extra_cycles =
        (fun ~ptid ->
          if ptid = 2 && not !delayed then begin
            delayed := true;
            1_000
          end
          else 0);
      crash_park_after = (fun ~ptid:_ -> None);
      crash_at_wake = (fun ~ptid:_ -> None);
    };
  let runnable_twice = ref 0 in
  Chip.set_probe chip (function
    | Switchless.Probe.State_change
        { ptid = 2; from_ = Ptid.Runnable; to_ = Ptid.Runnable; _ } ->
      incr runnable_twice
    | _ -> ());
  let runs = ref 0 in
  let target = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach target (fun _ -> incr runs);
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach client (fun th ->
      Isa.start th ~vtid:2;
      Sim.delay 100;
      Isa.start th ~vtid:2);
  Chip.boot client;
  Sim.run sim;
  check_bool "the first start was delayed" true !delayed;
  check_int "no runnable -> runnable transition" 0 !runnable_twice;
  check_int "body ran exactly once" 1 !runs

(* Two start hand-offs of a force-stopped thread in flight at once: the
   first makes it runnable and its body re-parks in [mwait] before the
   second lands.  The second must leave the parked thread [Waiting], as
   a start aimed at a [Waiting] thread does, so that the next stop
   claims the park and the doorbell after it wakes nobody. *)
let test_second_start_hand_off_keeps_park () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let doorbell = Memory.alloc mem 1 in
  let start_wakes_of_parked = ref 0 in
  Chip.set_probe chip (function
    | Switchless.Probe.State_change
        { ptid = 1; from_ = Ptid.Waiting; to_ = Ptid.Runnable; reason = "start-wake" } ->
      incr start_wakes_of_parked
    | _ -> ());
  let woke = ref 0 in
  let waiter = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach waiter (fun th ->
      Isa.monitor th doorbell;
      while true do
        ignore (Isa.mwait th : Memory.addr);
        incr woke
      done);
  Chip.boot waiter;
  let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.exec th 100;
      Isa.stop th ~vtid:1;
      (* Two starts 4 cycles apart, each landing 20 cycles after its
         issue: the waiter re-parks between the two hand-offs. *)
      Isa.start th ~vtid:1;
      Isa.start th ~vtid:1;
      Isa.exec th 100;
      Isa.stop th ~vtid:1;
      Isa.exec th 100;
      Isa.store th doorbell 1L);
  Chip.boot boss;
  Sim.run sim;
  check_int "the second hand-off left the parked thread alone" 0 !start_wakes_of_parked;
  check_int "the stopped thread slept through the doorbell" 0 !woke;
  check_bool "still disabled" true (Chip.state waiter = Ptid.Disabled)

(* Two wake deliveries in flight for one thread: a force-stop and
   restart inside the first delivery's latency window let the re-parked
   thread take a second wake.  Each delivery must keep its own (park
   round, address): the stale first one re-latches [a1], the second
   wakes the thread with [a2], and the next mwait returns [a1] at once.
   500 filler arms on a zero-capacity monitor table stretch every wake
   by a 1,004-cycle write scan, so the window is wide. *)
let test_overlapping_deliveries () =
  let sim = Sim.create () in
  let chip = Chip.create sim { p with Params.monitor_capacity_per_core = 0 } ~cores:2 in
  let mem = Chip.memory chip in
  let a1 = Memory.alloc mem 1 and a2 = Memory.alloc mem 1 in
  let monitor = Chip.monitor_table chip in
  let filler = Switchless.Monitor.register monitor ~core_id:0 in
  let base = Memory.alloc mem 500 in
  for k = 0 to 499 do
    Switchless.Monitor.arm monitor filler (base + k)
  done;
  let wakes = ref [] in
  let waiter = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach waiter (fun th ->
      Isa.monitor th a1;
      Isa.monitor th a2;
      while true do
        let a = Isa.mwait th in
        wakes := (a, Sim.now ()) :: !wakes
      done);
  Chip.boot waiter;
  let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.exec th 5000;
      Memory.write mem a1 1L;
      Isa.stop th ~vtid:1;
      Isa.start th ~vtid:1;
      Isa.exec th 100;
      Memory.write mem a2 1L);
  Chip.boot boss;
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "a2 wakes the re-parked thread, then a1 arrives re-latched"
    [ (a2, 6138); (a1, 6148) ]
    (List.rev !wakes)

(* A force-stop inside the 20-cycle restart window of an expired
   [mwait_for] wins: the restart event stands down (no timeout probe,
   the thread stays disabled), and only the later start resumes the
   thread with [None]. *)
let test_deadline_restart_lost_to_stop () =
  let sim, chip = setup () in
  let timeouts = ref 0 in
  Chip.set_probe chip (function
    | Switchless.Probe.Mwait_timeout _ -> incr timeouts
    | _ -> ());
  let result = ref (Some 0) and resumed_at = ref 0 in
  let waiter = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach waiter (fun th ->
      result := Isa.mwait_for th ~deadline:1000;
      resumed_at := Sim.now ());
  Chip.boot waiter;
  let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.exec th 1001;
      Isa.stop th ~vtid:1;
      Isa.exec th 5000;
      Isa.start th ~vtid:1);
  Chip.boot boss;
  Sim.run sim;
  check_bool "empty-handed" true (!result = None);
  check_int "resumed by the start" 6029 !resumed_at;
  check_int "no timeout probe" 0 !timeouts;
  check_bool "body ended disabled" true (Chip.state waiter = Ptid.Disabled)

(* The restart of an expired [mwait_for] overtaken by a stop and a
   start.  With room for one context in the register file, a wake of
   [other] has demoted the waiter's state to L2, so the restart waits out
   a 30-cycle transfer, while the start finds the state back in the
   register file and lands first.  The body returns [None] and parks in
   a new [mwait] before the old restart fires, which must leave that
   park alone. *)
let test_stale_deadline_restart_keeps_park () =
  let one_context = Regstate.footprint_bytes p (Regstate.create ()) in
  let sim = Sim.create () in
  let chip = Chip.create sim { p with Params.rf_capacity_bytes = one_context } ~cores:2 in
  let mem = Chip.memory chip in
  let idle = Memory.alloc mem 1 and doorbell = Memory.alloc mem 1 in
  let timeouts = ref 0 in
  Chip.set_probe chip (function
    | Switchless.Probe.Mwait_timeout _ -> incr timeouts
    | _ -> ());
  let result = ref (Some 0) and resumed_at = ref 0 and parked_again = ref false in
  let waiter = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach waiter (fun th ->
      Isa.monitor th idle;
      result := Isa.mwait_for th ~deadline:1000;
      resumed_at := Sim.now ();
      parked_again := true;
      ignore (Isa.mwait th : Memory.addr);
      parked_again := false);
  Chip.boot waiter;
  let other = Chip.add_thread chip ~core:0 ~ptid:3 ~mode:Ptid.Supervisor () in
  Chip.attach other (fun th ->
      Isa.monitor th doorbell;
      ignore (Isa.mwait th : Memory.addr));
  Chip.boot other;
  let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.exec th 500;
      Isa.store th doorbell 1L;
      Isa.exec th 497;
      Isa.stop th ~vtid:1;
      Isa.start th ~vtid:1);
  Chip.boot boss;
  Sim.run sim;
  check_bool "empty-handed" true (!result = None);
  check_int "resumed by the start" 1026 !resumed_at;
  check_int "no timeout probe" 0 !timeouts;
  check_bool "parked in the new mwait" true !parked_again;
  check_bool "still waiting" true (Chip.state waiter = Ptid.Waiting)

(* An explicit start between a crash-stop and its cold restart respawns
   the body; the scheduled restart then stands down, so the body runs
   exactly twice and the thread counts two starts. *)
let test_start_of_crashed_thread () =
  let sim, chip = setup () in
  let crashed = ref false in
  Chip.set_fault_hooks chip
    {
      Chip.spurious_wake_after = (fun ~ptid:_ -> None);
      start_extra_cycles = (fun ~ptid:_ -> 0);
      crash_park_after =
        (fun ~ptid ->
          if ptid = 1 && not !crashed then begin
            crashed := true;
            Some (10, 100_000)
          end
          else None);
      crash_at_wake = (fun ~ptid:_ -> None);
    };
  let addr = Memory.alloc (Chip.memory chip) 1 in
  let runs = ref 0 in
  let victim = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach victim (fun th ->
      incr runs;
      Isa.monitor th addr;
      ignore (Isa.mwait th : int));
  Chip.boot victim;
  let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.exec th 496;
      Isa.start th ~vtid:1);
  Chip.boot boss;
  Sim.run sim;
  check_bool "crashed mid-park" true !crashed;
  check_int "body ran twice" 2 !runs;
  check_int "one crash" 1 (Chip.crash_count victim);
  check_int "boot and the explicit start" 2 (Chip.start_count victim)

let test_rpush_rpull_roundtrip () =
  let sim, chip = setup () in
  let read_back = ref 0L in
  let target = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach target (fun _ -> ());
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.rpush th ~vtid:2 (Regstate.Gp 0) 42L;
      Isa.rpush th ~vtid:2 Regstate.Rip 0x4000L;
      read_back := Isa.rpull th ~vtid:2 (Regstate.Gp 0));
  Chip.boot boss;
  Sim.run sim;
  check_i64 "register written and read" 42L !read_back;
  check_i64 "rip set" 0x4000L (Regstate.get (Chip.regs target) Regstate.Rip)

let test_rpull_of_running_thread_faults () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let desc = Memory.alloc mem Exception_desc.size_words in
  let seen = ref None in
  (* Handler thread monitors the boss's exception descriptor area. *)
  let handler = Chip.add_thread chip ~core:0 ~ptid:3 ~mode:Ptid.Supervisor () in
  Chip.attach handler (fun th ->
      Isa.monitor th desc;
      let _ = Isa.mwait th in
      seen := Some (Exception_desc.read mem ~base:desc);
      Isa.start th ~vtid:1);
  Chip.boot handler;
  let runner = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach runner (fun th -> Isa.exec th 100_000);
  Chip.boot runner;
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Regstate.set (Chip.regs boss) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  Chip.attach boss (fun th ->
      let v = Isa.rpull th ~vtid:2 (Regstate.Gp 0) in
      (* After the fault is handled we resume with a zero result. *)
      check_i64 "faulted rpull yields 0" 0L v);
  Chip.boot boss;
  Sim.run ~until:200_000 sim;
  match !seen with
  | Some d ->
    check_bool "invalid-thread-access descriptor" true
      (d.Exception_desc.kind = Exception_desc.Invalid_thread_access);
    check_int "faulting ptid" 1 d.Exception_desc.ptid
  | None -> Alcotest.fail "handler never saw the descriptor"

(* --- TDT-mediated permissions --- *)

let tdt_setup ~perms_bits =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun _ -> ());
  let table = Tdt.create () in
  Tdt.set table ~vtid:5 ~ptid:10 (Tdt.perms_of_bits perms_bits);
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.set_tdt user table;
  (sim, chip, user, target, table)

let test_tdt_start_permission_granted () =
  let sim, _chip, user, target, _ = tdt_setup ~perms_bits:0b1000 in
  Chip.attach user (fun th -> Isa.start th ~vtid:5);
  Chip.boot user;
  Sim.run sim;
  check_int "target started" 1 (Chip.start_count target)

let test_tdt_stop_permission_denied_faults_caller () =
  let sim, chip, user, target, _ = tdt_setup ~perms_bits:0b1000 in
  (* No handler chain: the denied stop escalates to a halt. *)
  Chip.attach user (fun th -> Isa.stop th ~vtid:5);
  Chip.boot user;
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Halted"
  | exception Chip.Halted _ -> ());
  check_bool "chip recorded halt" true (Chip.halted chip <> None);
  ignore target

let test_tdt_denied_with_handler_disables_caller_only () =
  let sim, chip, user, target, _ = tdt_setup ~perms_bits:0b1000 in
  let mem = Chip.memory chip in
  let desc = Memory.alloc mem Exception_desc.size_words in
  Regstate.set (Chip.regs user) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  let handled = ref false in
  let handler = Chip.add_thread chip ~core:0 ~ptid:3 ~mode:Ptid.Supervisor () in
  Chip.attach handler (fun th ->
      Isa.monitor th desc;
      let _ = Isa.mwait th in
      let d = Exception_desc.read mem ~base:desc in
      handled := d.Exception_desc.kind = Exception_desc.Permission_denied;
      Isa.start th ~vtid:1);
  Chip.boot handler;
  Chip.attach user (fun th -> Isa.stop th ~vtid:5);
  Chip.boot user;
  Sim.run sim;
  check_bool "permission fault delivered to handler" true !handled;
  check_bool "target untouched" true (Chip.state target = Ptid.Disabled);
  check_bool "no halt" true (Chip.halted chip = None)

let test_tdt_modify_some_allows_gp_only () =
  let sim, chip, user, _target, _ = tdt_setup ~perms_bits:0b1110 in
  let mem = Chip.memory chip in
  let desc = Memory.alloc mem Exception_desc.size_words in
  Regstate.set (Chip.regs user) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  let faults = ref [] in
  let handler = Chip.add_thread chip ~core:0 ~ptid:3 ~mode:Ptid.Supervisor () in
  Chip.attach handler (fun th ->
      Isa.monitor th desc;
      let rec loop () =
        let _ = Isa.mwait th in
        let d = Exception_desc.read mem ~base:desc in
        faults := d.Exception_desc.kind :: !faults;
        Isa.start th ~vtid:1;
        loop ()
      in
      loop ());
  Chip.boot handler;
  let gp_ok = ref false in
  Chip.attach user (fun th ->
      Isa.rpush th ~vtid:5 (Regstate.Gp 3) 9L;
      gp_ok := true;
      (* Rip needs modify-most: faults. *)
      Isa.rpush th ~vtid:5 Regstate.Rip 1L);
  Chip.boot user;
  Sim.run ~until:100_000 sim;
  check_bool "gp write allowed" true !gp_ok;
  check_bool "rip write denied" true (!faults = [ Exception_desc.Permission_denied ])

let test_tdt_stale_mapping_until_invtid () =
  let sim, chip = setup () in
  let old_target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach old_target (fun _ -> ());
  let new_target = Chip.add_thread chip ~core:1 ~ptid:11 ~mode:Ptid.User () in
  Chip.attach new_target (fun _ -> ());
  let table = Tdt.create () in
  Tdt.set table ~vtid:5 ~ptid:10 (Tdt.perms_of_bits 0b1111);
  let sup = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.set_tdt sup table;
  Chip.attach sup (fun th ->
      (* Populate this core's cache. *)
      Isa.start th ~vtid:5;
      (* Retarget the vtid, but forget invtid: stale ptid 10 is used. *)
      Tdt.set table ~vtid:5 ~ptid:11 (Tdt.perms_of_bits 0b1111);
      Isa.stop th ~vtid:5;
      (* stop acted on the stale target (10), which had been started. *)
      Isa.invtid th ~vtid:5;
      Isa.start th ~vtid:5);
  Chip.boot sup;
  Sim.run sim;
  check_int "old target started once then stopped" 1 (Chip.start_count old_target);
  check_bool "old target stopped via stale entry" true
    (Chip.state old_target = Ptid.Disabled);
  check_int "new target started after invtid" 1 (Chip.start_count new_target)

let test_user_set_tdt_faults () =
  let sim, chip = setup () in
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach user (fun th -> Isa.set_tdt th (Tdt.create ()));
  Chip.boot user;
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Halted"
  | exception Chip.Halted _ -> ());
  check_bool "halted" true (Chip.halted chip <> None)

(* --- exception chains (§3.2 "Consecutive Exceptions") --- *)

let test_exception_chain_two_levels () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let d1 = Memory.alloc mem Exception_desc.size_words in
  let d2 = Memory.alloc mem Exception_desc.size_words in
  let order = ref [] in
  (* A faults -> B handles; B faults while handling -> C handles. *)
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs a) Regstate.Exception_descriptor_ptr (Int64.of_int d1);
  Chip.attach a (fun th ->
      Isa.fault th Exception_desc.Divide_error ~info:0L;
      order := "a-resumed" :: !order);
  let b = Chip.add_thread chip ~core:0 ~ptid:2 ~mode:Ptid.Supervisor () in
  Regstate.set (Chip.regs b) Regstate.Exception_descriptor_ptr (Int64.of_int d2);
  Chip.attach b (fun th ->
      Isa.monitor th d1;
      let _ = Isa.mwait th in
      order := "b-handling" :: !order;
      (* B itself page-faults mid-handler. *)
      Isa.fault th Exception_desc.Page_fault ~info:0xdeadL;
      order := "b-resumed" :: !order;
      Isa.start th ~vtid:1);
  let c = Chip.add_thread chip ~core:1 ~ptid:3 ~mode:Ptid.Supervisor () in
  Chip.attach c (fun th ->
      Isa.monitor th d2;
      let _ = Isa.mwait th in
      order := "c-handling" :: !order;
      Isa.start th ~vtid:2);
  Chip.boot b;
  Chip.boot c;
  Chip.boot a;
  Sim.run sim;
  Alcotest.(check (list string)) "chain order"
    [ "a-resumed"; "b-resumed"; "c-handling"; "b-handling" ]
    !order;
  check_bool "no halt" true (Chip.halted chip = None)

let test_triple_fault_halts () =
  let sim, chip = setup () in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  (* edp = 0: no handler anywhere. *)
  Chip.attach a (fun th -> Isa.fault th Exception_desc.Divide_error ~info:0L);
  Chip.boot a;
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Halted"
  | exception Chip.Halted reason ->
    check_bool "reason mentions the kind" true
      (String.length reason > 0 && Chip.halted chip = Some reason))

let test_chip_stats () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach a (fun th ->
      Isa.monitor th addr;
      let _ = Isa.mwait th in
      ());
  Chip.boot a;
  Sim.spawn sim (fun () ->
      Sim.delay 10;
      Memory.write mem addr 1L);
  Sim.run sim;
  let s = Chip.stats chip in
  check_int "wakeups" 1 s.Chip.total_wakeups;
  check_int "rf wakes" 1 s.Chip.rf_wakes;
  check_int "boot counts as start" 1 s.Chip.total_starts

let test_determinism_of_chip_runs () =
  let run () =
    let sim, chip = setup () in
    let mem = Chip.memory chip in
    let addr = Memory.alloc mem 1 in
    let log = Buffer.create 64 in
    let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
    Chip.attach a (fun th ->
        Isa.monitor th addr;
        for _ = 1 to 5 do
          let _ = Isa.mwait th in
          Buffer.add_string log (Printf.sprintf "w@%d;" (Sim.now ()));
          Isa.exec th 37
        done);
    Chip.boot a;
    let rng = Sl_util.Rng.create 99L in
    Sim.spawn sim (fun () ->
        for _ = 1 to 5 do
          Sim.delay (100 + Sl_util.Rng.int rng 500);
          Memory.write mem addr 1L
        done);
    Sim.run sim;
    Buffer.contents log
  in
  Alcotest.(check string) "identical replay" (run ()) (run ())

(* Two threads on two cores ping-pong through monitored words: per round
   trip two stores and two parks, each woken by the other's store.  The
   dynamic twin of the [zero-alloc] rule for the park/wake path, which
   that rule cannot follow through [Sim]: 4 minor words per round trip
   on OCaml 5.1, the runtime's continuation of each park (2 words).
   Nothing else: an mwait builds no closure and no option, both parks
   suspend on the chip's one park point, an [exec] alone on its core
   continues inline and [Smt_core]'s serve path stores unboxed floats.
   32 words while each mwait built its park and crash-check closures
   and an option, 96 with every [exec] an event and a suspension, 74
   with the wake cell and [Smt_core] on [Sim.await] (19 words an
   await).  Measured as the difference between two run lengths, so that
   world set-up cancels out. *)
let monitor_ping_pong rounds =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let ping = Memory.alloc mem 1 and pong = Memory.alloc mem 1 in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let b = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach a (fun th ->
      Isa.monitor th pong;
      (* Let [b] arm [ping] first. *)
      Isa.exec th 100;
      for _ = 1 to rounds do
        Isa.store th ping 1L;
        ignore (Isa.mwait th : Memory.addr)
      done);
  Chip.attach b (fun th ->
      Isa.monitor th ping;
      for _ = 1 to rounds do
        ignore (Isa.mwait th : Memory.addr);
        Isa.store th pong 1L
      done);
  Chip.boot b;
  Chip.boot a;
  Sim.run sim;
  check_int "every round woke both" (2 * rounds) (Chip.stats chip).Chip.total_wakeups

let test_ping_pong_allocation () =
  monitor_ping_pong 100;
  let words rounds =
    let before = Gc.minor_words () in
    monitor_ping_pong rounds;
    Gc.minor_words () -. before
  in
  let per_round_trip = (words 2000 -. words 1000) /. 1000.0 in
  check_bool
    (Printf.sprintf "%.1f minor words per round trip < 8" per_round_trip)
    true (per_round_trip < 8.0)

(* The heap a parked hardware thread holds: 12,000 threads on one core,
   each armed on its own doorbell and parked in mwait, read as live
   words after a full major collection against the same world before
   the first thread was added.  105.9 words on OCaml 5.1 (DESIGN.md,
   "Memory per parked ptid" has the table); 107.2 while the wheel kept
   a ready ring beside its event arena, 108.6 while the core kept a
   bill flag per slot beside its sums, 116 while the chip's ptid
   table was a Hashtbl beside a list of every thread, 127 while every
   thread kept a monitor-waiter closure and every process a waker
   closure, 143
   while the chip, the state store and the core each kept a ptid table
   and every process its formatted name, 216 while every process built
   its own effect handler, every thread its own park point, and every
   context its 24-word register file before anything wrote it. *)
let test_parked_ptid_heap () =
  let words = (Parked_heap.measure ~cores:1 ~per_core:12_000).Parked_heap.heap_words in
  check_bool
    (Printf.sprintf "%.1f heap words per parked ptid < 109" words)
    true (words < 109.0)

(* Setting up a thread: minor words per [add_thread] + [attach] +
   [boot] over 1,000 threads on one core, all sharing one body, the
   growth of the per-core arrays included.  69.7 words on OCaml 5.1
   from a dev build (67.7 from release); 70.2 while the wheel kept a
   ready ring beside its event arena; 70.7 while the core grew a
   bill-flag array beside its sums; 77
   while the chip hashed each ptid into a Hashtbl and consed each
   thread onto a list; 124 while the thread record and its context's
   entry were each built twice through a [let rec], with a waiter
   closure per thread; 182
   while each thread was hashed into the chip's, the store's and the
   core's ptid tables and each boot formatted the process's name. *)
let test_thread_setup_allocation () =
  let n = 1_000 in
  let sim, chip = setup ~cores:1 () in
  let body th = Isa.exec th 1 in
  let before = Gc.minor_words () in
  for ptid = 1 to n do
    let th = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.User () in
    Chip.attach th body;
    Chip.boot th
  done;
  let per_thread = (Gc.minor_words () -. before) /. float_of_int n in
  Sim.run sim;
  check_bool
    (Printf.sprintf "%.1f minor words per thread set up < 73" per_thread)
    true (per_thread < 73.0)

(* The chip's one ptid table is the one that refuses a taken ptid; the
   units below it take whatever handle they hand out.  A taken ptid
   still raises once the table's window has grown past it to a sparse
   sentinel and rebased below it. *)
let test_duplicate_ptid_rejected () =
  let _, chip = setup () in
  let add ~core ptid =
    ignore (Chip.add_thread chip ~core ~ptid ~mode:Ptid.User () : Chip.thread)
  in
  let taken = Invalid_argument "Chip.add_thread: ptid already exists" in
  add ~core:0 7;
  Alcotest.check_raises "same core" taken (fun () -> add ~core:0 7);
  Alcotest.check_raises "other core" taken (fun () -> add ~core:1 7);
  check_int "one thread" 1 (List.length (Chip.thread_list chip));
  add ~core:1 9_000;
  add ~core:0 2;
  List.iter
    (fun ptid ->
      Alcotest.check_raises (Printf.sprintf "%d after the rebase" ptid) taken (fun () ->
          add ~core:1 ptid))
    [ 2; 7; 9_000 ];
  check_int "three threads" 3 (List.length (Chip.thread_list chip))

(* The ptid table is one direct-mapped window from the lowest ptid to
   the highest: small ptids mixed with a sparse sentinel, then one
   registered below the first, so that the window rebases downward.
   Every lookup finds its own thread, and [thread_list] walks the
   window in ptid order. *)
let test_ptid_table_window () =
  let _, chip = setup () in
  let threads =
    List.map
      (fun (core, ptid) -> Chip.add_thread chip ~core ~ptid ~mode:Ptid.User ())
      [ (0, 1); (1, 100); (0, 9_000); (1, 0) ]
  in
  List.iter
    (fun th ->
      let ptid = Chip.ptid th in
      check_bool (Printf.sprintf "ptid %d finds its thread" ptid) true
        (Chip.find_thread chip ~ptid == th))
    threads;
  let listed = Chip.thread_list chip in
  Alcotest.(check (list int)) "thread_list in ptid order" [ 0; 1; 100; 9_000 ]
    (List.map Chip.ptid listed);
  Alcotest.(check (list int)) "each on its home core" [ 1; 0; 1; 0 ]
    (List.map Chip.home_core listed)

(* Ptids outside the table: a negative one, two never registered (one
   inside the window, one past it) and one above [Chip.max_ptid].
   [find_thread] raises for each, [add_thread] refuses the negative and
   the too-large one, and a keyed start of each faults its caller with
   [Invalid_thread_access], the ptid as info.  [max_ptid] itself is
   taken, on a fresh chip at the cost of a 16-int window. *)
let test_ptid_outside_table () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let desc = Memory.alloc mem Exception_desc.size_words in
  let faults = ref [] in
  let kind_name = Format.asprintf "%a" Exception_desc.pp_kind in
  let handler = Chip.add_thread chip ~core:1 ~ptid:9_000 ~mode:Ptid.Supervisor () in
  Chip.attach handler (fun th ->
      Isa.monitor th desc;
      let rec serve () =
        ignore (Isa.mwait th : Memory.addr);
        let d = Exception_desc.read mem ~base:desc in
        faults := (kind_name d.Exception_desc.kind, d.Exception_desc.info) :: !faults;
        Isa.start th ~vtid:d.Exception_desc.ptid;
        serve ()
      in
      serve ());
  Chip.boot handler;
  let caller = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs caller) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  let outside = [ -1; 50; 9_001; Chip.max_ptid + 1 ] in
  Chip.attach caller (fun th ->
      List.iter (fun target_ptid -> Isa.start_keyed th ~target_ptid ~key:0L) outside);
  Chip.boot caller;
  Sim.run sim;
  let invalid = kind_name Exception_desc.Invalid_thread_access in
  Alcotest.(check (list (pair string int64)))
    "keyed start faults with the ptid as info"
    (List.map (fun ptid -> (invalid, Int64.of_int ptid)) outside)
    (List.rev !faults);
  List.iter
    (fun ptid ->
      Alcotest.check_raises (Printf.sprintf "find_thread %d" ptid)
        (Invalid_argument "Chip.find_thread: unknown ptid") (fun () ->
          ignore (Chip.find_thread chip ~ptid : Chip.thread)))
    outside;
  let add chip ptid = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.User () in
  Alcotest.check_raises "add_thread negative"
    (Invalid_argument "Chip.add_thread: negative ptid") (fun () ->
      ignore (add chip (-1) : Chip.thread));
  Alcotest.check_raises "add_thread above max_ptid"
    (Invalid_argument "Chip.add_thread: ptid above max_ptid") (fun () ->
      ignore (add chip (Chip.max_ptid + 1) : Chip.thread));
  check_int "two threads" 2 (List.length (Chip.thread_list chip));
  let _, fresh = setup () in
  let top = add fresh Chip.max_ptid in
  check_bool "max_ptid taken" true (Chip.find_thread fresh ~ptid:Chip.max_ptid == top)

(* The sums in [stats] and [crash_total] walk the ptid table: they equal
   the same folds over [thread_list], on a chip of sparse ptids whose
   threads woke, started and crashed different numbers of times (ptid
   100 crash-stops at each wake; ptid 5 is never booted). *)
let test_stats_sum_thread_list () =
  let sim, chip = setup () in
  let mem = Chip.memory chip in
  let bell = Memory.alloc mem 1 in
  Chip.set_fault_hooks chip
    {
      Chip.spurious_wake_after = (fun ~ptid:_ -> None);
      start_extra_cycles = (fun ~ptid:_ -> 0);
      crash_park_after = (fun ~ptid:_ -> None);
      crash_at_wake = (fun ~ptid -> if ptid = 100 then Some 50 else None);
    };
  let body th =
    Isa.monitor th bell;
    let rec serve () =
      ignore (Isa.mwait th : Memory.addr);
      serve ()
    in
    serve ()
  in
  List.iter
    (fun (core, ptid) ->
      let th = Chip.add_thread chip ~core ~ptid ~mode:Ptid.User () in
      Chip.attach th body;
      if ptid <> 5 then Chip.boot th)
    [ (0, 9_000); (1, 100); (0, 1); (1, 5) ];
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        Sim.delay 1_000;
        Memory.write mem bell 1L
      done);
  Sim.run sim;
  let s = Chip.stats chip in
  let sum f = List.fold_left (fun acc th -> acc + f th) 0 (Chip.thread_list chip) in
  check_int "wakeups" (sum Chip.wakeup_count) s.Chip.total_wakeups;
  check_int "starts" (sum Chip.start_count) s.Chip.total_starts;
  check_int "crashes" (sum Chip.crash_count) (Chip.crash_total chip);
  Alcotest.(check (list int)) "as counted" [ 9; 6; 3 ]
    [ s.Chip.total_wakeups; s.Chip.total_starts; Chip.crash_total chip ]

(* A body's process carries its thread's ptid, and only the report
   names it: [Sim.stuck] gives the ptid and no name, and the summary
   reads "ptid-N" as it did when every spawn formatted that name.  A
   named process and an unnamed one read as before. *)
let test_stuck_reports_ptid () =
  let sim, chip = setup () in
  let bell = Memory.alloc (Chip.memory chip) 1 in
  let th = Chip.add_thread chip ~core:1 ~ptid:42 ~mode:Ptid.User () in
  Chip.attach th (fun th ->
      Isa.monitor th bell;
      ignore (Isa.mwait th : Memory.addr));
  Chip.boot th;
  let never = Sl_engine.Ivar.create () in
  Sim.spawn sim ~name:"server" (fun () -> Sl_engine.Ivar.read never);
  Sim.spawn sim (fun () -> Sl_engine.Ivar.read never);
  Sim.run sim;
  (match Sim.stuck sim with
  | [ thread; server; plain ] ->
    Alcotest.(check (option int)) "thread's ptid" (Some 42) thread.Sim.ptid;
    Alcotest.(check (option string)) "thread unnamed" None thread.Sim.name;
    Alcotest.(check (option int)) "server has no ptid" None server.Sim.ptid;
    Alcotest.(check (option int)) "plain has no ptid" None plain.Sim.ptid
  | l -> Alcotest.failf "%d blocked processes, 3 expected" (List.length l));
  let since = (List.hd (Sim.stuck sim)).Sim.blocked_since in
  Alcotest.(check (option string))
    "summary"
    (Some
       (Printf.sprintf
          "3 process(es) still blocked: ptid-42 (pid 1, since %d), server (pid 2, since 0), pid 3 (since 0)"
          since))
    (Sim.stuck_summary sim)

(* A start -> stop round trip from one thread to another: the start's
   wake-up event and thaw, the stop's freeze.  With no probe installed
   neither builds its probe event, nor its actor, and the target
   resolves without an option or a tuple.  8 minor words on OCaml 5.1;
   38 while each resolve returned [Some (target, perms)] (and the ptid
   lookup its own [Some]) and each caller built [Probe.Thread], 45
   while both built their [Start_edge] and [Stop_edge] records
   unconditionally.  The bound fails if each reschedule of a core
   builds a closure for its completion event again (20 words).
   Measured like the ping-pong above.  [~keyed] makes the pair [start_keyed] and
   [stop_keyed] (a supervisor passes whatever its key): the same 8
   words, 32 while each keyed instruction built its resolver as a
   closure over the key. *)
let start_stop_round_trips ?(keyed = false) rounds =
  let sim, chip = setup () in
  let worker = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach worker (fun th ->
      while true do
        Isa.exec th 1_000_000_000
      done);
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      for _ = 1 to rounds do
        if keyed then Isa.start_keyed th ~target_ptid:2 ~key:7L else Isa.start th ~vtid:2;
        Isa.exec th 1000;
        if keyed then Isa.stop_keyed th ~target_ptid:2 ~key:7L else Isa.stop th ~vtid:2;
        Isa.exec th 1000
      done);
  Chip.boot boss;
  Sim.run sim;
  check_int "every round started the worker" rounds (Chip.start_count worker)

let start_stop_allocation ~keyed () =
  start_stop_round_trips ~keyed 100;
  let words rounds =
    let before = Gc.minor_words () in
    start_stop_round_trips ~keyed rounds;
    Gc.minor_words () -. before
  in
  let per_round_trip = (words 2000 -. words 1000) /. 1000.0 in
  check_bool
    (Printf.sprintf "%.1f minor words per %sstart -> stop round trip < 10" per_round_trip
       (if keyed then "keyed " else ""))
    true (per_round_trip < 10.0)

(* A server that stops itself after each request, started once per
   request from another core: per round trip one start hand-off, one
   self-stop and one park until the next start, each of the server's
   parks at its thread's one suspension point.  10 minor words on OCaml
   5.1; 34 while each start and stop resolved its target into
   [Some (target, perms)], 93 while the park waited on a [Signal]
   through [Sim.await] and [Sim.set_daemon] was an effect.  The bound
   fails if each reschedule of a core builds a closure for its
   completion event again (16 words).  Measured like the ping-pong
   above. *)
let self_stopping_server requests =
  let sim, chip = setup () in
  let server = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach server (fun th ->
      while true do
        Isa.exec th 100;
        Isa.stop th ~vtid:2
      done);
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach client (fun th ->
      for _ = 1 to requests do
        Isa.start th ~vtid:2;
        Isa.exec th 1000
      done);
  Chip.boot client;
  Sim.run sim;
  check_int "every request started the server" requests (Chip.start_count server)

let test_stop_start_allocation () =
  self_stopping_server 100;
  let words requests =
    let before = Gc.minor_words () in
    self_stopping_server requests;
    Gc.minor_words () -. before
  in
  let per_round_trip = (words 2000 -. words 1000) /. 1000.0 in
  check_bool
    (Printf.sprintf "%.1f minor words per stop -> start round trip < 12" per_round_trip)
    true (per_round_trip < 12.0)

(* --- spin: a polling loop whose idle gaps cost one call --- *)

module Smt_core = Switchless.Smt_core

(* A lone spinner on a one-core chip, polling a flag that a callback
   sets at [flag_at] (at least 1, so the body starts first), [gap]
   cycles per empty check.  Returns when the spin returned, the events
   popped, how often [ready] was read and the core's busy cycles. *)
let lone_spinner ?(flag = false) ~gap ~flag_at () =
  let sim, chip = setup ~cores:1 () in
  let flag = ref flag and reads = ref 0 and returned = ref (-1) in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let ready () =
    incr reads;
    !flag
  in
  Chip.attach th (fun th ->
      Isa.spin th ~kind:Smt_core.Poll ~gap ready;
      returned := Sim.now ());
  Sim.schedule sim ~at:flag_at (fun () -> flag := true);
  Chip.boot th;
  Sim.run sim;
  ( !returned,
    Sim.events_processed sim,
    !reads,
    Smt_core.busy_capacity_cycles (Chip.exec_core chip 0) )

(* A 0 gap would poll forever at one tick; the gap is checked first,
   even when [ready] already holds. *)
let test_spin_gap_below_one () =
  List.iter
    (fun (gap, flag) ->
      let sim, chip = setup ~cores:1 () in
      let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
      Chip.attach th (fun th -> Isa.spin th ~kind:Smt_core.Poll ~gap (fun () -> flag));
      Chip.boot th;
      Alcotest.check_raises (Printf.sprintf "gap %d" gap)
        (Invalid_argument "Chip.spin: gap must be at least 1") (fun () -> Sim.run sim))
    [ (0, false); (-1, false); (0, true) ]

(* With [ready] already true the spin is one read: the world is the one
   where the body never spins. *)
let test_spin_ready_at_once () =
  let returned, events, reads, busy = lone_spinner ~flag:true ~gap:20 ~flag_at:500 () in
  check_int "returned at once" 0 returned;
  check_int "one read" 1 reads;
  Alcotest.(check (float 0.0)) "no cycle spent" 0.0 busy;
  let sim, chip = setup ~cores:1 () in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach th (fun _ -> ());
  Sim.schedule sim ~at:500 ignore;
  Chip.boot th;
  Sim.run sim;
  check_int "no event added" (Sim.events_processed sim) events

(* From a [schedule] callback a spin does what an [exec] does there,
   even with the thread runnable on an idle core, where a process's
   gaps would continue inline: it has no process to suspend. *)
let test_spin_from_a_callback () =
  let raised f =
    let sim, chip = setup ~cores:1 () in
    let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
    Chip.attach th (fun _ -> ());
    Sim.schedule sim ~at:0 (fun () -> f th);
    Chip.boot th;
    match Sim.run sim with () -> "returned" | exception e -> Printexc.to_string e
  in
  let exec = raised (fun th -> Isa.exec th ~kind:Smt_core.Poll 20) in
  check_bool "exec raises" true (exec <> "returned");
  Alcotest.(check string)
    "spin raises as exec does" exec
    (raised (fun th -> Isa.spin th ~kind:Smt_core.Poll ~gap:20 (fun () -> false)))

(* Alone on an idle world with one callback at [t], the spinner serves
   every gap that ends before [t] in one call, blocks in the gap that
   reaches [t], and returns at that gap's end, the first boundary at or
   after [t]: one blocked gap's events (completion and hop) beside the
   callback's, and two reads of [ready], however many gaps it polled. *)
let test_spin_lone_idle_stretch () =
  List.iter
    (fun (t, gap) ->
      let case = Printf.sprintf "t %d, gap %d" t gap in
      let returned, events, reads, busy = lone_spinner ~gap ~flag_at:t () in
      let _, at_once, _, _ = lone_spinner ~flag:true ~gap ~flag_at:t () in
      let boundary = (t + gap - 1) / gap * gap in
      check_int (case ^ ": returned") boundary returned;
      check_int (case ^ ": events") (at_once + 2) events;
      check_int (case ^ ": reads") 2 reads;
      Alcotest.(check (float 0.0)) (case ^ ": busy") (float_of_int boundary) busy)
    [ (1, 1); (1, 20); (20, 20); (21, 20); (1_000, 7); (12_345, 40); (999_983, 3) ]

(* Spinning over 10,000 more idle gaps allocates no word: 0.0 minor
   words per gap on OCaml 5.1.  The plain loop of [Isa.exec th ~kind
   gap], with [kind] a variable, allocates 2 per gap (the option that
   wraps an optional argument), and pays one call per gap.  Measured
   as the difference between two stretch lengths, so that world set-up
   cancels out. *)
let test_spin_allocation () =
  let gap = 20 in
  let words gaps =
    let before = Gc.minor_words () in
    ignore (lone_spinner ~gap ~flag_at:(gaps * gap) () : int * int * int * float);
    Gc.minor_words () -. before
  in
  ignore (words 100 : float);
  let per_gap = (words 20_000 -. words 10_000) /. 10_000.0 in
  check_bool
    (Printf.sprintf "%.4f minor words per idle gap < 0.001" per_gap)
    true (per_gap < 0.001)

let () =
  Alcotest.run "chip"
    [
      ( "mwait",
        [
          Alcotest.test_case "wakeup latency" `Quick test_mwait_wakeup_latency;
          Alcotest.test_case "immediate on raced write" `Quick
            test_mwait_immediate_when_write_raced_ahead;
          Alcotest.test_case "dma-style writes" `Quick test_dma_write_wakes_like_cpu_write;
        ] );
      ( "start/stop",
        [
          Alcotest.test_case "start latency" `Quick test_start_latency_and_body_spawn;
          Alcotest.test_case "stop freezes, start resumes" `Quick
            test_stop_freezes_and_start_resumes_execution;
          Alcotest.test_case "stop of waiting thread" `Quick
            test_stop_of_waiting_thread_and_restart_reparks;
          Alcotest.test_case "start latches against in-flight stop" `Quick
            test_start_latches_against_inflight_stop;
          Alcotest.test_case "delayed start overtaken by retry" `Quick
            test_delayed_start_overtaken_by_retry;
          Alcotest.test_case "second start hand-off keeps the park" `Quick
            test_second_start_hand_off_keeps_park;
          Alcotest.test_case "spurious wake reaches its thread" `Quick
            test_spurious_wake_reaches_its_thread;
          Alcotest.test_case "overlapping wake deliveries" `Quick
            test_overlapping_deliveries;
          Alcotest.test_case "deadline restart lost to a stop" `Quick
            test_deadline_restart_lost_to_stop;
          Alcotest.test_case "stale deadline restart keeps the park" `Quick
            test_stale_deadline_restart_keeps_park;
          Alcotest.test_case "start of a crash-stopped thread" `Quick
            test_start_of_crashed_thread;
        ] );
      ( "remote registers",
        [
          Alcotest.test_case "rpush/rpull roundtrip" `Quick test_rpush_rpull_roundtrip;
          Alcotest.test_case "rpull of running thread faults" `Quick
            test_rpull_of_running_thread_faults;
        ] );
      ( "tdt permissions",
        [
          Alcotest.test_case "start granted" `Quick test_tdt_start_permission_granted;
          Alcotest.test_case "stop denied halts (no handler)" `Quick
            test_tdt_stop_permission_denied_faults_caller;
          Alcotest.test_case "denied with handler" `Quick
            test_tdt_denied_with_handler_disables_caller_only;
          Alcotest.test_case "modify-some scope" `Quick test_tdt_modify_some_allows_gp_only;
          Alcotest.test_case "stale until invtid" `Quick test_tdt_stale_mapping_until_invtid;
          Alcotest.test_case "user set_tdt faults" `Quick test_user_set_tdt_faults;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "two-level chain" `Quick test_exception_chain_two_levels;
          Alcotest.test_case "triple fault halts" `Quick test_triple_fault_halts;
        ] );
      ( "misc",
        [
          Alcotest.test_case "stats" `Quick test_chip_stats;
          Alcotest.test_case "deterministic" `Quick test_determinism_of_chip_runs;
          Alcotest.test_case "parked ptid heap" `Quick test_parked_ptid_heap;
          Alcotest.test_case "thread set-up allocation" `Quick test_thread_setup_allocation;
          Alcotest.test_case "duplicate ptid rejected" `Quick test_duplicate_ptid_rejected;
          Alcotest.test_case "ptid table window" `Quick test_ptid_table_window;
          Alcotest.test_case "ptid outside the table" `Quick test_ptid_outside_table;
          Alcotest.test_case "stats sum thread_list" `Quick test_stats_sum_thread_list;
          Alcotest.test_case "stuck reports the ptid" `Quick test_stuck_reports_ptid;
          Alcotest.test_case "ping-pong round-trip allocation" `Quick
            test_ping_pong_allocation;
          Alcotest.test_case "stop -> start round-trip allocation" `Quick
            test_stop_start_allocation;
          Alcotest.test_case "start -> stop round-trip allocation" `Quick
            (start_stop_allocation ~keyed:false);
          Alcotest.test_case "keyed start -> stop round-trip allocation" `Quick
            (start_stop_allocation ~keyed:true);
        ] );
      ( "spin",
        [
          Alcotest.test_case "gap below 1 refused" `Quick test_spin_gap_below_one;
          Alcotest.test_case "ready at once spends nothing" `Quick test_spin_ready_at_once;
          Alcotest.test_case "from a callback raises as exec does" `Quick
            test_spin_from_a_callback;
          Alcotest.test_case "lone idle stretch is one blocked gap" `Quick
            test_spin_lone_idle_stretch;
          Alcotest.test_case "idle gaps allocate nothing" `Quick test_spin_allocation;
        ] );
    ]
