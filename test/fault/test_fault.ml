(* The fault injector: spec strings, per-class streams, determinism, and
   hook attachment. *)

module Fault = Sl_fault.Fault
module Sim = Sl_engine.Sim
module Memory = Switchless.Memory
module Params = Switchless.Params
module Nic = Sl_dev.Nic
module Analysis = Sl_analysis.Analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let p = Params.default

(* --- spec strings -------------------------------------------------------- *)

let test_spec_roundtrip () =
  let plan =
    {
      Fault.none with
      Fault.seed = 42L;
      nic_doorbell_drop = 0.01;
      mwait_lost = 0.05;
      nvme_stall = 0.25;
      nvme_stall_cycles = 75_000;
      ipi_drop = 1.0;
    }
  in
  let spec = Fault.to_spec plan in
  (match Fault.parse_spec spec with
  | Ok plan' -> check_bool "round-trips" true (plan = plan')
  | Error e -> Alcotest.fail e);
  check_str "identity plan spec" "seed=1" (Fault.to_spec Fault.none)

let test_spec_parsing () =
  (match Fault.parse_spec "seed=9,mwait.lost=0.5" with
  | Ok plan ->
    check_bool "seed" true (plan.Fault.seed = 9L);
    check_bool "prob" true (plan.Fault.mwait_lost = 0.5);
    check_bool "others default" true
      (plan = { Fault.none with Fault.seed = 9L; mwait_lost = 0.5 })
  | Error e -> Alcotest.fail e);
  let is_error = function Error _ -> true | Ok _ -> false in
  check_bool "unknown key" true (is_error (Fault.parse_spec "nic.bogus=0.5"));
  check_bool "out of range" true (is_error (Fault.parse_spec "mwait.lost=1.5"));
  check_bool "bad float" true (is_error (Fault.parse_spec "mwait.lost=x"));
  check_bool "bad seed" true (is_error (Fault.parse_spec "seed=abc"));
  check_bool "not key=value" true (is_error (Fault.parse_spec "mwait.lost"));
  check_bool "negative cycles" true
    (is_error (Fault.parse_spec "nvme.stall_cycles=-5"))

let test_is_active () =
  check_bool "none inactive" false (Fault.is_active Fault.none);
  check_bool "one class active" true
    (Fault.is_active { Fault.none with Fault.store_silent = 0.01 })

(* Exact round-trip over the whole plan space: arbitrary doubles in the
   probability knobs (float_range emits values with no short decimal
   form, exercising the %.12g/%.17g fallbacks), arbitrary cycle counts,
   arbitrary seeds.  parse_spec (to_spec p) must rebuild p bit for bit —
   this is what lets a shrunk schedule replay byte-identically through
   SWITCHLESS_FAULTS. *)
let gen_plan : Fault.plan QCheck.Gen.t =
 fun st ->
  let plan = ref { Fault.none with Fault.seed = Int64.of_int (QCheck.Gen.int st) } in
  List.iter
    (fun k ->
      if QCheck.Gen.bool st then
        plan := Fault.with_prob !plan k (QCheck.Gen.float_range 0.0 1.0 st))
    Fault.prob_keys;
  List.iter
    (fun k ->
      if QCheck.Gen.bool st then
        plan := Fault.with_cycles !plan k (QCheck.Gen.int_range 0 2_000_000 st))
    Fault.cycles_keys;
  !plan

let prop_spec_roundtrip_exact =
  QCheck.Test.make ~name:"spec round-trips exactly for arbitrary plans"
    ~count:500
    (QCheck.make ~print:Fault.to_spec gen_plan)
    (fun plan ->
      match Fault.parse_spec (Fault.to_spec plan) with
      | Ok plan' -> plan = plan' && Fault.to_spec plan' = Fault.to_spec plan
      | Error _ -> false)

(* --- deterministic injection --------------------------------------------- *)

let run_nic_workload inj =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:4096 () in
  Fault.attach_nic inj nic;
  Sim.spawn sim (fun () ->
      for _ = 1 to 200 do
        Nic.inject nic;
        Sim.delay 50
      done);
  Sim.run sim;
  nic

let test_injection_replays () =
  let plan = { Fault.none with Fault.seed = 7L; nic_doorbell_drop = 0.2 } in
  let i1 = Fault.create plan in
  let i2 = Fault.create plan in
  let _ = run_nic_workload i1 in
  let _ = run_nic_workload i2 in
  check_bool "some faults fired" true (Fault.total_injected i1 > 0);
  check_bool "identical schedules" true (Fault.counts i1 = Fault.counts i2)

let test_disabled_classes_consume_no_randomness () =
  (* Enabling an unrelated class (whose hooks never even run here) must
     not perturb the NIC stream's schedule. *)
  let base = { Fault.none with Fault.seed = 7L; nic_doorbell_drop = 0.2 } in
  let plus = { base with Fault.ipi_drop = 0.9; nvme_stall = 0.9 } in
  let i1 = Fault.create base in
  let i2 = Fault.create plus in
  let _ = run_nic_workload i1 in
  let _ = run_nic_workload i2 in
  check_int "same nic schedule"
    (Fault.count i1 "nic.doorbell_drop")
    (Fault.count i2 "nic.doorbell_drop")

let test_counts_reflect_injections () =
  let plan = { Fault.none with Fault.seed = 3L; nic_dma_drop = 0.3 } in
  let inj = Fault.create plan in
  let nic = run_nic_workload inj in
  check_int "counter matches device accounting"
    (Nic.dma_dropped nic)
    (Fault.count inj "nic.dma_drop");
  check_bool "reported in counts" true
    (List.mem_assoc "nic.dma_drop" (Fault.counts inj))

(* --- crash-stop semantics (direct chip hooks) ---------------------------- *)

module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid

let hooks ?(crash_park_after = fun ~ptid:_ -> None)
    ?(crash_at_wake = fun ~ptid:_ -> None) () =
  {
    Chip.spurious_wake_after = (fun ~ptid:_ -> None);
    start_extra_cycles = (fun ~ptid:_ -> 0);
    crash_park_after;
    crash_at_wake;
  }

(* A thread crashed mid-park cold-restarts through its body: the body
   runs again from scratch, re-arms its monitor, and a later write is
   served by the new life. *)
let test_crash_at_park_restarts () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let crashes_left = ref 1 in
  Chip.set_fault_hooks chip
    (hooks
       ~crash_park_after:(fun ~ptid:_ ->
         if !crashes_left > 0 then begin
           decr crashes_left;
           Some (50, 1_000)
         end
         else None)
       ());
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let boots = ref 0 and served = ref 0 in
  Chip.attach th (fun t ->
      incr boots;
      Isa.monitor t addr;
      let _ = Isa.mwait t in
      incr served);
  Chip.boot th;
  Sim.spawn sim (fun () ->
      Sim.delay 5_000;
      Memory.write mem addr 1L);
  Sim.run sim;
  check_int "body ran twice (cold restart)" 2 !boots;
  check_int "wake served by the restarted life" 1 !served;
  check_int "one crash recorded" 1 (Chip.crash_count th);
  check_int "chip-wide total" 1 (Chip.crash_total chip)

(* A crash at the wake boundary consumes the triggering write without
   processing it — the mid-request death.  The restarted life re-arms
   and only a fresh write completes the request. *)
let test_crash_at_wake_consumes_the_wake () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let crash_next = ref true in
  Chip.set_fault_hooks chip
    (hooks
       ~crash_at_wake:(fun ~ptid:_ ->
         if !crash_next then begin
           crash_next := false;
           Some 500
         end
         else None)
       ());
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let boots = ref 0 and served = ref 0 in
  Chip.attach th (fun t ->
      incr boots;
      Isa.monitor t addr;
      while !served < 1 do
        let _ = Isa.mwait t in
        incr served
      done);
  Chip.boot th;
  Sim.spawn sim (fun () ->
      Sim.delay 2_000;
      Memory.write mem addr 1L;
      (* First write died with the thread; ring again after the restart. *)
      Sim.delay 10_000;
      Memory.write mem addr 2L);
  Sim.run sim;
  check_int "body ran twice" 2 !boots;
  check_int "only the fresh write was served" 1 !served;
  check_int "one crash recorded" 1 (Chip.crash_count th)

(* Crash scheduling replays: the same plan injects the same crashes at
   the same simulated instants, twice. *)
let run_crash_workload plan =
  let inj = Fault.create plan in
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  Fault.attach_chip inj chip;
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let served = ref 0 in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach th (fun t ->
      Isa.monitor t addr;
      while !served < 50 do
        match Isa.mwait_for t ~deadline:(Sim.now () + 4_000) with
        | Some _ | None -> incr served
      done);
  Chip.boot th;
  Sim.spawn sim (fun () ->
      for i = 1 to 60 do
        Sim.delay 1_000;
        Memory.write mem addr (Int64.of_int i)
      done);
  Sim.run sim;
  (Fault.counts inj, Chip.crash_count th, !served)

let test_crash_injection_replays () =
  let plan =
    { Fault.none with Fault.seed = 21L; crash_park = 0.2; crash_wake = 0.1 }
  in
  let r1 = run_crash_workload plan in
  let r2 = run_crash_workload plan in
  let counts, crashes, served = r1 in
  check_bool "crashes fired" true (crashes > 0);
  check_bool "progress survived the crashes" true (served = 50);
  check_bool "crash classes counted" true
    (List.mem_assoc "crash.park" counts || List.mem_assoc "crash.wake" counts);
  check_bool "identical replay" true (r1 = r2)

(* crash.boot_window = w confines every crash to sim time < w. *)
let test_crash_boot_window_confines () =
  let base =
    { Fault.none with Fault.seed = 21L; crash_park = 0.9; crash_wake = 0.3 }
  in
  let _, unconfined, _ = run_crash_workload base in
  let _, confined, _ =
    run_crash_workload { base with Fault.crash_boot_window = 3_000 }
  in
  check_bool "window reduces crashes" true (confined < unconfined);
  check_bool "crashes still land inside the window" true (confined > 0)

(* --- ambient installation ------------------------------------------------ *)

let test_with_ambient_scopes_hooks () =
  let plan = { Fault.none with Fault.seed = 11L; nic_doorbell_drop = 1.0 } in
  let inj = Fault.create plan in
  let inside =
    Fault.with_ambient inj (fun () ->
        let sim = Sim.create () in
        let mem = Memory.create () in
        let nic = Nic.create sim p mem ~queue_depth:64 () in
        Sim.spawn sim (fun () -> Nic.inject nic);
        Sim.run sim;
        Nic.doorbells_dropped nic)
  in
  check_int "ambient nic got the faults" 1 inside;
  (* After the bracket, new devices are clean. *)
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:64 () in
  Sim.spawn sim (fun () -> Nic.inject nic);
  Sim.run sim;
  check_int "hooks cleared after bracket" 0 (Nic.doorbells_dropped nic)

(* One packet through a fresh NIC: the doorbells an attached
   [nic.doorbell_drop = 1.0] injector dropped (1), or 0 when none is. *)
let nic_drops () =
  let sim = Sim.create () in
  let nic = Nic.create sim p (Memory.create ()) ~queue_depth:64 () in
  Sim.spawn sim (fun () -> Nic.inject nic);
  Sim.run sim;
  Nic.doorbells_dropped nic

let dropper seed = Fault.create { Fault.none with Fault.seed = seed; nic_doorbell_drop = 1.0 }

(* An observer installed through the kept [Nic.set_creation_hook] and one
   installed through [Sim.observe] both see every NIC, whatever
   [with_ambient] attaches in between: the single-slot NIC hook it
   replaced saw only the first. *)
let test_observers_coexist_with_ambient () =
  let by_hook = ref 0 and by_observer = ref 0 in
  Nic.set_creation_hook (fun _ -> incr by_hook);
  Sim.observe ~key:"test" (function Nic.Nic _ -> incr by_observer | _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Nic.clear_creation_hook ();
      Sim.unobserve ~key:"test")
    (fun () ->
      check_int "first nic clean" 0 (nic_drops ());
      check_int "second nic injected" 1 (Fault.with_ambient (dropper 11L) nic_drops);
      check_int "third nic clean" 0 (nic_drops ()));
  check_int "the hook saw all three nics" 3 !by_hook;
  check_int "the observer saw all three nics" 3 !by_observer

let test_nested_ambient_restores_outer () =
  let outer = dropper 11L and inner = Fault.create { Fault.none with Fault.seed = 12L } in
  let inside, after =
    Fault.with_ambient outer (fun () ->
        let inside = Fault.with_ambient inner nic_drops in
        (inside, nic_drops ()))
  in
  check_int "the inner injector attached inside" 0 inside;
  check_int "the outer injector attached after the inner returned" 1 after;
  check_int "neither after both returned" 0 (nic_drops ())

let test_ambient_removed_on_raise () =
  (match Fault.with_ambient (dropper 11L) (fun () -> raise Exit) with
  | () -> Alcotest.fail "body raised"
  | exception Exit -> ());
  check_int "no injector after the raise" 0 (nic_drops ())

(* Two threads store one word after a start, unordered: one race for the
   sanitizers, one start hand-off for [start.delay = 1.0]. *)
let racy_chip () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let shared = Memory.alloc (Chip.memory chip) 1 in
  let worker = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach worker (fun th -> Isa.store th shared 2L);
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach boss (fun th ->
      Isa.start th ~vtid:2;
      Isa.store th shared 1L);
  Chip.boot boss;
  Sim.run sim

let test_analysis_and_faults_both_attach () =
  let delayer () = Fault.create { Fault.none with Fault.seed = 13L; start_delay = 1.0 } in
  let has_race findings =
    List.exists (fun f -> f.Sl_analysis.Report.rule = "race") findings
  in
  let inj = delayer () in
  let (), findings = Analysis.with_all (fun () -> Fault.with_ambient inj racy_chip) in
  check_bool "analysis outside: probe attached" true (has_race findings);
  check_int "analysis outside: fault hooks attached" 1 (Fault.total_injected inj);
  let inj = delayer () in
  let (), findings = Fault.with_ambient inj (fun () -> Analysis.with_all racy_chip) in
  check_bool "faults outside: probe attached" true (has_race findings);
  check_int "faults outside: fault hooks attached" 1 (Fault.total_injected inj)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "parsing" `Quick test_spec_parsing;
          Alcotest.test_case "is_active" `Quick test_is_active;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip_exact;
        ] );
      ( "injection",
        [
          Alcotest.test_case "replays" `Quick test_injection_replays;
          Alcotest.test_case "independent streams" `Quick
            test_disabled_classes_consume_no_randomness;
          Alcotest.test_case "counts" `Quick test_counts_reflect_injections;
        ] );
      ( "crash",
        [
          Alcotest.test_case "park crash restarts" `Quick
            test_crash_at_park_restarts;
          Alcotest.test_case "wake crash consumes the wake" `Quick
            test_crash_at_wake_consumes_the_wake;
          Alcotest.test_case "replays" `Quick test_crash_injection_replays;
          Alcotest.test_case "boot window confines" `Quick
            test_crash_boot_window_confines;
        ] );
      ( "ambient",
        [
          Alcotest.test_case "scoped hooks" `Quick test_with_ambient_scopes_hooks;
          Alcotest.test_case "observers coexist" `Quick
            test_observers_coexist_with_ambient;
          Alcotest.test_case "nested injectors" `Quick test_nested_ambient_restores_outer;
          Alcotest.test_case "removed on raise" `Quick test_ambient_removed_on_raise;
          Alcotest.test_case "analysis and faults both attach" `Quick
            test_analysis_and_faults_both_attach;
        ] );
    ]
