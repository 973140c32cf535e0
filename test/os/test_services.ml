(* Tests for microkernel IPC, the hypervisor paths, and the E7 servers. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Tdt = Switchless.Tdt
module Swsched = Sl_baseline.Swsched
module Microkernel = Sl_os.Microkernel
module Hypervisor = Sl_os.Hypervisor
module Hw_channel = Sl_os.Hw_channel
module Server = Sl_dist.Server
module Rpc = Sl_dist.Rpc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

(* --- microkernel IPC --- *)

let measure_sw_ipc () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~warmup:false ~cores:1 () in
  let service = Microkernel.Sw_service.create sim sched p in
  let client = Swsched.thread sched () in
  let out = ref 0 in
  Sim.spawn sim (fun () ->
      (* Warm up the client's context so we time steady-state IPC. *)
      Swsched.exec client 10;
      let t0 = Sim.now () in
      Microkernel.Sw_service.call service ~client ~service_work:500;
      out := Sim.now () - t0);
  Sim.run sim;
  !out

let measure_hw_ipc () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let service = Hw_channel.create chip ~core:1 ~server_ptid:100 ~mode:Ptid.User () in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Hw_channel.grant service ~client ~vtid:7;
  let out = ref 0 in
  Chip.attach client (fun th ->
      let t0 = Sim.now () in
      Hw_channel.call service ~client:th ~via:7 ~work:500 ();
      out := Sim.now () - t0);
  Chip.boot client;
  Sim.run sim;
  !out

let test_sw_ipc_includes_both_trap_pairs () =
  let cost = measure_sw_ipc () in
  (* Client: trap-in + sched; service: switch + trap-out + work + trap-in
     + sched; client: switch back + trap-out.  Far above the raw work. *)
  check_bool (Printf.sprintf "sw ipc %d > work + 2 switches" cost) true (cost > 500 + 2 * 1484)

let test_hw_ipc_close_to_raw_work () =
  let cost = measure_hw_ipc () in
  check_bool (Printf.sprintf "hw ipc %d within work + 150" cost) true
    (cost >= 500 && cost < 500 + 150)

let test_hw_ipc_beats_sw_ipc () =
  let sw = measure_sw_ipc () and hw = measure_hw_ipc () in
  check_bool (Printf.sprintf "hw %d at least 4x cheaper than sw %d" hw sw) true (hw * 4 < sw)

let test_user_mode_service_cannot_touch_third_party () =
  (* The isolated service's TDT only names itself: starting anything else
     faults — with no handler, the chip halts.  Isolation is real. *)
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let victim = Chip.add_thread chip ~core:0 ~ptid:50 ~mode:Ptid.User () in
  Chip.attach victim (fun _ -> ());
  let rogue =
    Hw_channel.create chip ~core:1 ~server_ptid:100 ~mode:Ptid.User
      ~on_request:(fun th _work ->
        (* Try to stop an unrelated thread. *)
        Isa.stop th ~vtid:50)
      ()
  in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach client (fun th -> Hw_channel.call rogue ~client:th ~work:10 ());
  Chip.boot client;
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Halted"
  | exception Chip.Halted _ -> ());
  check_bool "victim untouched" true (Chip.state victim = Ptid.Disabled)

(* --- hypervisor --- *)

let measure_inkernel_exit () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~warmup:false ~cores:1 () in
  let guest = Swsched.thread sched () in
  let out = ref 0 in
  Sim.spawn sim (fun () ->
      Swsched.exec guest 10;
      let t0 = Sim.now () in
      Hypervisor.inkernel_exit guest p ~handle_work:300;
      out := Sim.now () - t0);
  Sim.run sim;
  !out

let measure_isolated_exit () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let hyp = Hypervisor.Isolated.create chip ~core:1 ~hyp_ptid:200 in
  let guest = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Hypervisor.Isolated.install_guest hyp ~guest;
  let out = ref 0 in
  Chip.attach guest (fun th ->
      (* Second exit measures the steady state (hypervisor TDT cached). *)
      Hypervisor.Isolated.vmexit th ~handle_work:300;
      let t0 = Sim.now () in
      Hypervisor.Isolated.vmexit th ~handle_work:300;
      out := Sim.now () - t0);
  Chip.boot guest;
  Sim.run sim;
  !out

let test_inkernel_exit_cost () =
  check_int "vmexit entry+work+exit" (700 + 300 + 800) (measure_inkernel_exit ())

let test_isolated_exit_reasonable () =
  let cost = measure_isolated_exit () in
  (* descriptor(16) + 4 writes + hyp wake(26) + reads + work(300) + start
     issue/lookup + guest wake(20ish): well under the in-kernel 1800. *)
  check_bool (Printf.sprintf "isolated exit %d in [350, 800]" cost) true
    (cost >= 350 && cost <= 800)

let test_isolated_beats_inkernel () =
  let ik = measure_inkernel_exit () and iso = measure_isolated_exit () in
  check_bool (Printf.sprintf "isolated %d cheaper than in-kernel %d" iso ik) true (iso < ik)

let test_isolated_hypervisor_is_unprivileged () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let hyp = Hypervisor.Isolated.create chip ~core:1 ~hyp_ptid:200 in
  let guest = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Hypervisor.Isolated.install_guest hyp ~guest;
  let exits_done = ref 0 in
  Chip.attach guest (fun th ->
      for _ = 1 to 4 do
        Hypervisor.Isolated.vmexit th ~handle_work:100;
        incr exits_done
      done);
  Chip.boot guest;
  Sim.run sim;
  check_int "four exits served" 4 !exits_done;
  check_int "hypervisor counted them" 4 (Hypervisor.Isolated.exits hyp);
  check_bool "hypervisor stayed user-mode" true
    (Chip.mode (Chip.find_thread chip ~ptid:200) = Ptid.User)

let test_remote_exit_works_but_burns_poll () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let remote = Hypervisor.Remote.create chip ~core:1 ~hyp_ptid:200 () in
  let guest = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  let out = ref 0 in
  Chip.attach guest (fun th ->
      let t0 = Sim.now () in
      Hypervisor.Remote.vmexit remote ~guest:th ~handle_work:300;
      out := Sim.now () - t0);
  Chip.boot guest;
  Sim.run sim;
  check_int "one exit" 1 (Hypervisor.Remote.exits remote);
  (* The poller stops by itself once its guest's body has ended. *)
  check_int "nothing left blocked" 0 (List.length (Sim.stuck sim));
  check_bool "latency close to work" true (!out < 300 + 300);
  let hyp_core = Chip.exec_core chip 1 in
  check_bool "poll cycles burned" true
    (Switchless.Smt_core.work_done hyp_core Switchless.Smt_core.Poll > 0.0)

(* --- daemon marks: servers parked by design are not deadlock suspects --- *)

let check_parked_not_suspect sim =
  check_bool "a server is still parked" true (Sim.stuck sim <> []);
  check_int "but none is a suspect" 0 (List.length (Sim.suspects sim))

let test_isolated_hypervisor_is_daemon () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let hyp = Hypervisor.Isolated.create chip ~core:1 ~hyp_ptid:200 in
  let guest = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Hypervisor.Isolated.install_guest hyp ~guest;
  Chip.attach guest (fun th -> Hypervisor.Isolated.vmexit th ~handle_work:100);
  Chip.boot guest;
  Sim.run sim;
  check_int "exit served" 1 (Hypervisor.Isolated.exits hyp);
  check_parked_not_suspect sim

let test_sw_service_is_daemon () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~warmup:false ~cores:1 () in
  let service = Microkernel.Sw_service.create sim sched p in
  let client = Swsched.thread sched () in
  Sim.spawn sim (fun () ->
      Microkernel.Sw_service.call service ~client ~service_work:100);
  Sim.run sim;
  check_int "request served" 1 (Microkernel.Sw_service.served service);
  check_parked_not_suspect sim

(* --- E7 servers --- *)

let server_cfg =
  {
    Server.params = p;
    seed = 3L;
    cores = 2;
    rate_per_kcycle = 0.4;
    service = Sl_util.Dist.bimodal_with_cv2 ~mean:2000.0 ~cv2:16.0 ~p_long:0.02;
    count = 800;
  }

let test_software_server_completes () =
  let s = Server.run_software server_cfg in
  check_int "all requests" 800 s.Server.completed;
  check_bool "switch tax paid" true (s.Server.switch_overhead_cycles > 0.0)

let test_hw_server_completes () =
  let s = Server.run_hw_pool server_cfg in
  check_int "all requests" 800 s.Server.completed

let test_hw_pool_beats_software_tail () =
  let sw = Server.run_software server_cfg in
  let hw = Server.run_hw_pool server_cfg in
  let sw99 = Server.percentile sw.Server.slowdowns 0.99 in
  let hw99 = Server.percentile hw.Server.slowdowns 0.99 in
  check_bool
    (Printf.sprintf "hw p99 slowdown %.1f < sw %.1f" hw99 sw99)
    true (hw99 < sw99)

(* A run of no request has nothing to measure: refused, not shown as
   "completed 0 in 256 cycles". *)
let refuses_no_request fn run =
  List.iter
    (fun count ->
      Alcotest.check_raises (Printf.sprintf "count %d" count)
        (Invalid_argument (fn ^ ": count must be at least 1")) (fun () ->
          run { server_cfg with Server.count }))
    [ 0; -5 ]

let test_software_refuses_no_request () =
  refuses_no_request "Server.run_software" (fun cfg ->
      ignore (Server.run_software cfg : Server.stats))

let test_hw_pool_refuses_no_request () =
  refuses_no_request "Server.run_hw_pool" (fun cfg ->
      ignore (Server.run_hw_pool cfg : Server.stats))

let test_closed_pool_refuses_no_request () =
  refuses_no_request "Server.run_hw_pool_closed" (fun cfg ->
      ignore
        (Server.run_hw_pool_closed ~clients:4 ~think:(Sl_util.Dist.Constant 1000.0) cfg
          : Server.closed_stats))

let test_percentile_edge_cases () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Server.percentile [||] 0.99);
  Alcotest.(check (float 1e-9)) "single" 5.0 (Server.percentile [| 5.0 |] 0.5);
  Alcotest.(check (float 1e-9)) "p0 clamps" 1.0 (Server.percentile [| 1.0; 2.0 |] 0.0)

(* --- RPC --- *)

let test_rpc_blocking_call () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let rng = Sl_util.Rng.create 1L in
  let remote =
    Rpc.create_remote chip ~rtt:(Sl_util.Dist.Constant 3000.0) ~server_work:500 ~rng
  in
  let session = Rpc.session remote in
  let took = ref 0 in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach client (fun th ->
      let t0 = Sim.now () in
      Rpc.call session ~client:th;
      took := Sim.now () - t0);
  Chip.boot client;
  Sim.run sim;
  check_int "one rpc" 1 (Rpc.completed remote);
  check_bool "took at least rtt+work" true (!took >= 3500);
  check_bool "little overhead beyond" true (!took < 3600)

let test_rpc_latency_hiding_with_many_threads () =
  let throughput n_threads =
    let sim = Sim.create () in
    let chip = Chip.create sim p ~cores:1 in
    let rng = Sl_util.Rng.create 1L in
    let remote =
      Rpc.create_remote chip ~rtt:(Sl_util.Dist.Constant 5000.0) ~server_work:0 ~rng
    in
    for i = 1 to n_threads do
      let session = Rpc.session remote in
      let client = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
      Chip.attach client (fun th ->
          for _ = 1 to 10 do
            Rpc.call session ~client:th;
            Isa.exec th 200
          done);
      Chip.boot client
    done;
    Sim.run sim;
    float_of_int (Rpc.completed remote) /. float_of_int (Sim.time sim)
  in
  let one = throughput 1 and many = throughput 16 in
  check_bool
    (Printf.sprintf "16 threads (%.5f) ≥ 8x one thread (%.5f)" many one)
    true (many > 8.0 *. one)

let () =
  Alcotest.run "services"
    [
      ( "microkernel",
        [
          Alcotest.test_case "sw ipc cost" `Quick test_sw_ipc_includes_both_trap_pairs;
          Alcotest.test_case "hw ipc near raw work" `Quick test_hw_ipc_close_to_raw_work;
          Alcotest.test_case "hw beats sw" `Quick test_hw_ipc_beats_sw_ipc;
          Alcotest.test_case "service isolation" `Quick
            test_user_mode_service_cannot_touch_third_party;
        ] );
      ( "hypervisor",
        [
          Alcotest.test_case "in-kernel cost" `Quick test_inkernel_exit_cost;
          Alcotest.test_case "isolated cost" `Quick test_isolated_exit_reasonable;
          Alcotest.test_case "isolated beats in-kernel" `Quick test_isolated_beats_inkernel;
          Alcotest.test_case "unprivileged hypervisor" `Quick
            test_isolated_hypervisor_is_unprivileged;
          Alcotest.test_case "remote (SplitX) path" `Quick test_remote_exit_works_but_burns_poll;
        ] );
      ( "daemons",
        [
          Alcotest.test_case "isolated hypervisor" `Quick test_isolated_hypervisor_is_daemon;
          Alcotest.test_case "sw service loop" `Quick test_sw_service_is_daemon;
        ] );
      ( "servers",
        [
          Alcotest.test_case "software completes" `Quick test_software_server_completes;
          Alcotest.test_case "hw pool completes" `Quick test_hw_server_completes;
          Alcotest.test_case "hw tail wins" `Quick test_hw_pool_beats_software_tail;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edge_cases;
          Alcotest.test_case "software: count below 1 refused" `Quick
            test_software_refuses_no_request;
          Alcotest.test_case "hw pool: count below 1 refused" `Quick
            test_hw_pool_refuses_no_request;
          Alcotest.test_case "closed pool: count below 1 refused" `Quick
            test_closed_pool_refuses_no_request;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "blocking call" `Quick test_rpc_blocking_call;
          Alcotest.test_case "latency hiding" `Quick test_rpc_latency_hiding_with_many_threads;
        ] );
    ]
