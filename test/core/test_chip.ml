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
   that rule cannot follow through [Sim]: 32 minor words per round trip
   on OCaml 5.1 with an [exec] alone on its core continuing inline and
   [Smt_core]'s serve path storing unboxed floats, 96 with every [exec]
   an event and a suspension, 246 with the wake cell and [Smt_core] on
   [Sim.await].  Measured as the difference between two run lengths, so
   that world set-up cancels out. *)
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
    (Printf.sprintf "%.1f minor words per round trip < 40" per_round_trip)
    true (per_round_trip < 40.0)

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
          Alcotest.test_case "overlapping wake deliveries" `Quick
            test_overlapping_deliveries;
          Alcotest.test_case "deadline restart lost to a stop" `Quick
            test_deadline_restart_lost_to_stop;
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
          Alcotest.test_case "ping-pong round-trip allocation" `Quick
            test_ping_pong_allocation;
        ] );
    ]
