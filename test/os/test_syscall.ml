(* Tests for the three system-call paths (E3 machinery): trap, FlexSC,
   and a hardware-thread server behind a Hw_channel. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core
module Swsched = Sl_baseline.Swsched
module Syscall = Sl_os.Syscall
module Hw_channel = Sl_os.Hw_channel

let check_i64 = Alcotest.(check int)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

let test_trap_cost () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~warmup:false ~cores:1 () in
  let app = Swsched.thread sched () in
  let done_at = ref 0 in
  Sim.spawn sim (fun () ->
      Syscall.Trap.call app p ~kernel_work:1000;
      done_at := Sim.now ());
  Sim.run sim;
  (* initial placement switch 1484 + entry 75 + work 1000 + exit 75 +
     pollution 300. *)
  check_int "trap total" (1484 + 75 + 1000 + 75 + 300) !done_at

let test_flexsc_amortizes_but_delays () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~warmup:false ~cores:1 () in
  let kernel_core = Smt_core.create sim p in
  let fx = Syscall.Flexsc.create sim ~batch_window:300 ~kernel_core () in
  let app = Swsched.thread sched () in
  let done_at = ref 0 in
  Sim.spawn sim (fun () ->
      Syscall.Flexsc.call fx app ~kernel_work:100;
      done_at := Sim.now ());
  Sim.run sim;
  (* switch 1484 + post 8 + window 300 + work 100 (+ event plumbing). *)
  check_bool "batching delay visible" true (!done_at >= 1484 + 8 + 300 + 100);
  check_bool "but no trap or pollution" true (!done_at < 2100)

let test_hw_thread_syscall_cost () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
  let done_at = ref 0 in
  let app = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach app (fun th ->
      Hw_channel.call sys ~client:th ~work:1000 ();
      done_at := Sim.now ());
  Chip.boot app;
  Sim.run sim;
  (* Round trip: monitor arm 4 + store 1 + start 4 | server: pipeline 20 +
     load 1 + work 1000 + store 1 | client wake 26 + mwait issue 4 + the
     final sequence re-check load 1; server self-stop overlaps.  Total is
     ~1065; assert the shape rather than the exact figure but require it
     to be far below the trap path. *)
  check_bool "hw syscall ≈ work + ~70 cycles" true
    (let t = !done_at in
     t >= 1040 && t <= 1120);
  check_int "served" 1 (Hw_channel.served sys)

let test_hw_thread_repeated_calls () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
  let gaps = ref [] in
  let app = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach app (fun th ->
      for _ = 1 to 5 do
        let t0 = Sim.now () in
        Hw_channel.call sys ~client:th ~work:200 ();
        gaps := Sim.now () - t0 :: !gaps
      done);
  Chip.boot app;
  Sim.run sim;
  check_int "five served" 5 (Hw_channel.served sys);
  (* Steady-state calls cost the same (no drift, no leak). *)
  (match !gaps with
  | last :: rest -> List.iter (fun g -> check_i64 "stable cost" last g) (List.filteri (fun i _ -> i < 3) rest)
  | [] -> Alcotest.fail "no gaps")

let test_hw_thread_concurrent_clients_serialize () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
  let completions = ref 0 in
  for i = 1 to 3 do
    let app = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.Supervisor () in
    Chip.attach app (fun th ->
        Hw_channel.call sys ~client:th ~work:500 ();
        incr completions);
    Chip.boot app
  done;
  Sim.run sim;
  check_int "all three served" 3 !completions;
  check_int "server count" 3 (Hw_channel.served sys)

let test_hw_beats_trap_for_small_work () =
  let measure_hw work =
    let sim = Sim.create () in
    let chip = Chip.create sim p ~cores:2 in
    let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
    let out = ref 0 in
    let app = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
    Chip.attach app (fun th ->
        let t0 = Sim.now () in
        Hw_channel.call sys ~client:th ~work:work ();
        out := Sim.now () - t0);
    Chip.boot app;
    Sim.run sim;
    !out
  in
  let measure_trap work =
    let sim = Sim.create () in
    let sched = Swsched.create sim p ~warmup:false ~cores:1 () in
    let app = Swsched.thread sched () in
    let out = ref 0 in
    Sim.spawn sim (fun () ->
        (* Warm the context first so we time only the syscall. *)
        Swsched.exec app 10;
        let t0 = Sim.now () in
        Syscall.Trap.call app p ~kernel_work:work;
        out := Sim.now () - t0);
    Sim.run sim;
    !out
  in
  let work = 100 in
  let hw = measure_hw work and trap = measure_trap work in
  check_bool
    (Printf.sprintf "hw (%d) much cheaper than trap (%d)" hw trap)
    true
    (hw * 3 < trap)

let () =
  Alcotest.run "syscall"
    [
      ( "paths",
        [
          Alcotest.test_case "trap cost" `Quick test_trap_cost;
          Alcotest.test_case "flexsc batching" `Quick test_flexsc_amortizes_but_delays;
          Alcotest.test_case "hw thread cost" `Quick test_hw_thread_syscall_cost;
          Alcotest.test_case "hw repeated calls" `Quick test_hw_thread_repeated_calls;
          Alcotest.test_case "hw concurrent clients" `Quick
            test_hw_thread_concurrent_clients_serialize;
          Alcotest.test_case "hw beats trap" `Quick test_hw_beats_trap_for_small_work;
        ] );
    ]
