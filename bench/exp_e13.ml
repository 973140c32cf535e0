(* E13 (ablation) — VM world switches by start/stop.

   Two VMs of two vCPUs each time-share one core; the hypervisor switches
   worlds every [slice] cycles.  In hardware, a world switch is
   stop x vCPUs + start x vCPUs (~60 cycles and the guests' register state
   never leaves the storage hierarchy); in software every vCPU pays the
   full context-switch cost when it next runs (~3,500 cycles each).

   Expected shape: hardware guest utilization stays ~100% down to very
   fine slices; software utilization collapses as the per-slice tax
   (vCPUs x switch cost) approaches the slice length — the paper's "the
   scheduler will run in much tighter loops" enabled quantitatively. *)

module Vm = Sl_os.Vm
module Params = Switchless.Params
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let duration = 4_000_000

let run b =
  let slices = [ 500_000; 100_000; 20_000; 5_000 ] in
  let rows =
    List.map
      (fun slice ->
        let hw = Vm.hw_timeshare p ~vms:2 ~vcpus:2 ~slice ~duration in
        let sw = Vm.sw_timeshare p ~vms:2 ~vcpus:2 ~slice ~duration in
        [
          Tablefmt.Int slice;
          Tablefmt.Float (100.0 *. hw.Vm.utilization);
          Tablefmt.Float (100.0 *. sw.Vm.utilization);
          Tablefmt.Float (hw.Vm.overhead_cycles /. float_of_int (max 1 hw.Vm.switches));
          Tablefmt.Float (sw.Vm.overhead_cycles /. float_of_int (max 1 sw.Vm.switches));
        ])
      slices
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E13: guest utilization under VM time-sharing (2 VMs x 2 vCPUs, 1 core)"
       ~header:
         [ "slice (cyc)"; "hw util %"; "sw util %"; "hw cyc/switch"; "sw cyc/switch" ]
       rows)
