(* Tests for VM time-sharing (Vm) and start/stop scheduling policies
   (Sched_policy). *)

module Params = Switchless.Params
module Vm = Sl_os.Vm
module Server = Sl_dist.Server
module Sched_policy = Sl_dist.Sched_policy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

(* --- Vm --- *)

let test_hw_timeshare_high_utilization () =
  let r = Vm.hw_timeshare p ~vms:2 ~vcpus:2 ~slice:10_000 ~duration:1_000_000 in
  check_bool
    (Printf.sprintf "hw utilization %.3f > 0.98" r.Vm.utilization)
    true (r.Vm.utilization > 0.98);
  check_bool "switch count ~ duration/slice" true
    (r.Vm.switches >= 95 && r.Vm.switches <= 100)

let test_sw_timeshare_pays_switch_tax () =
  let r = Vm.sw_timeshare p ~vms:2 ~vcpus:2 ~slice:10_000 ~duration:1_000_000 in
  check_bool
    (Printf.sprintf "sw utilization %.3f well below hw" r.Vm.utilization)
    true (r.Vm.utilization < 0.85);
  check_bool "overhead recorded" true (r.Vm.overhead_cycles > 0.0)

let test_hw_beats_sw_more_as_slice_shrinks () =
  let gap slice =
    let hw = Vm.hw_timeshare p ~vms:2 ~vcpus:2 ~slice ~duration:1_000_000 in
    let sw = Vm.sw_timeshare p ~vms:2 ~vcpus:2 ~slice ~duration:1_000_000 in
    hw.Vm.utilization -. sw.Vm.utilization
  in
  check_bool "finer slices widen the gap" true (gap 5_000 > gap 100_000)

let test_single_vm_no_switches () =
  let r = Vm.hw_timeshare p ~vms:1 ~vcpus:2 ~slice:10_000 ~duration:500_000 in
  check_int "no world switches" 0 r.Vm.switches;
  check_bool "full utilization" true (r.Vm.utilization > 0.99)

(* --- Sched_policy --- *)

let policy_cfg =
  {
    Server.params = p;
    seed = 9L;
    cores = 1;
    rate_per_kcycle = 0.5;
    service = Sl_util.Dist.bimodal_with_cv2 ~mean:2000.0 ~cv2:16.0 ~p_long:0.02;
    count = 800;
  }

let test_fcfs_completes_all () =
  let s = Sched_policy.run ~mode:Sched_policy.Fcfs policy_cfg in
  check_int "all completed" 800 s.Server.completed

let test_preemptive_completes_all () =
  let s = Sched_policy.run ~mode:(Sched_policy.Preemptive 5_000) policy_cfg in
  check_int "all completed (incl. preempted/resumed)" 800 s.Server.completed

let test_preemption_improves_tail () =
  let fcfs = Sched_policy.run ~mode:Sched_policy.Fcfs policy_cfg in
  let pre = Sched_policy.run ~mode:(Sched_policy.Preemptive 5_000) policy_cfg in
  let f99 = Server.percentile fcfs.Server.slowdowns 0.99 in
  let p99 = Server.percentile pre.Server.slowdowns 0.99 in
  check_bool (Printf.sprintf "preemptive p99 %.1f < fcfs %.1f" p99 f99) true (p99 < f99)

let test_preemption_overhead_is_small () =
  let pre = Sched_policy.run ~mode:(Sched_policy.Preemptive 5_000) policy_cfg in
  (* Scheduler mechanism cycles per request stay tiny compared to the
     2,000-cycle service. *)
  let per_req = pre.Server.switch_overhead_cycles /. 800.0 in
  check_bool (Printf.sprintf "%.0f cycles/request overhead < 150" per_req) true
    (per_req < 150.0)

let test_rejects_bad_limits () =
  Alcotest.check_raises "pool <= limit"
    (Invalid_argument "Sched_policy.run: need pool > runnable_limit > 0") (fun () ->
      ignore (Sched_policy.run ~pool:2 ~runnable_limit:2 ~mode:Sched_policy.Fcfs policy_cfg))

let test_deterministic () =
  let a = Sched_policy.run ~mode:(Sched_policy.Preemptive 5_000) policy_cfg in
  let b = Sched_policy.run ~mode:(Sched_policy.Preemptive 5_000) policy_cfg in
  Alcotest.(check int) "same elapsed" a.Server.elapsed_cycles b.Server.elapsed_cycles

(* A slice below one cycle never advances the hypervisor's clock (0) or
   cannot be waited at all (negative): both builders reject it up front. *)
let test_rejects_bad_slice () =
  List.iter
    (fun slice ->
      Alcotest.check_raises
        (Printf.sprintf "hw slice %d" slice)
        (Invalid_argument "Vm.hw_timeshare: slice must be at least 1 cycle")
        (fun () -> ignore (Vm.hw_timeshare p ~vms:2 ~vcpus:2 ~slice ~duration:100_000));
      Alcotest.check_raises
        (Printf.sprintf "sw slice %d" slice)
        (Invalid_argument "Vm.sw_timeshare: slice must be at least 1 cycle")
        (fun () -> ignore (Vm.sw_timeshare p ~vms:2 ~vcpus:2 ~slice ~duration:100_000)))
    [ 0; -1 ]

let () =
  Alcotest.run "policies"
    [
      ( "vm",
        [
          Alcotest.test_case "hw high utilization" `Quick test_hw_timeshare_high_utilization;
          Alcotest.test_case "sw pays tax" `Quick test_sw_timeshare_pays_switch_tax;
          Alcotest.test_case "gap widens with finer slices" `Quick
            test_hw_beats_sw_more_as_slice_shrinks;
          Alcotest.test_case "single vm" `Quick test_single_vm_no_switches;
          Alcotest.test_case "bad slice rejected" `Quick test_rejects_bad_slice;
        ] );
      ( "sched_policy",
        [
          Alcotest.test_case "fcfs completes" `Quick test_fcfs_completes_all;
          Alcotest.test_case "preemptive completes" `Quick test_preemptive_completes_all;
          Alcotest.test_case "preemption improves tail" `Quick test_preemption_improves_tail;
          Alcotest.test_case "overhead small" `Quick test_preemption_overhead_is_small;
          Alcotest.test_case "bad limits rejected" `Quick test_rejects_bad_limits;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
    ]
