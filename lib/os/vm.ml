module Sim = Sl_engine.Sim
module Signal = Sl_engine.Signal
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core
module Swsched = Sl_baseline.Swsched

type result = {
  utilization : float;
  switches : int;
  overhead_cycles : float;
}

(* Guest code runs in chunks; small enough that stops take effect
   promptly, large enough not to dominate simulation cost. *)
let guest_chunk = 200

let hw_timeshare params ~vms ~vcpus ~slice ~duration =
  if vms <= 0 || vcpus <= 0 then invalid_arg "Vm.hw_timeshare: need vms and vcpus";
  if slice < 1 then invalid_arg "Vm.hw_timeshare: slice must be at least 1 cycle";
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:2 in
  (* vCPU ptid of (vm, k): vm * 100 + k + 1. *)
  let vcpu_ptid vm k = (vm * 100) + k + 1 in
  for vm = 0 to vms - 1 do
    for k = 0 to vcpus - 1 do
      let th =
        Chip.add_thread chip ~core:0 ~ptid:(vcpu_ptid vm k) ~mode:Ptid.User ()
      in
      Chip.attach th (fun th ->
          while true do
            Isa.exec th guest_chunk
          done)
    done
  done;
  let switches = ref 0 in
  let hyp = Chip.add_thread chip ~core:1 ~ptid:9000 ~mode:Ptid.Supervisor () in
  Chip.attach hyp (fun th ->
      let current = ref 0 in
      (* Boot VM 0. *)
      for k = 0 to vcpus - 1 do
        Isa.start th ~vtid:(vcpu_ptid 0 k)
      done;
      while true do
        Sim.delay slice;
        let next = (!current + 1) mod vms in
        if next <> !current then begin
          incr switches;
          for k = 0 to vcpus - 1 do
            Isa.stop th ~vtid:(vcpu_ptid !current k)
          done;
          for k = 0 to vcpus - 1 do
            Isa.start th ~vtid:(vcpu_ptid next k)
          done;
          current := next
        end
      done);
  Chip.boot hyp;
  Sim.run ~until:duration sim;
  let core = Chip.exec_core chip 0 in
  let useful = Smt_core.work_done core Smt_core.Useful in
  let capacity =
    float_of_int duration *. float_of_int params.Params.smt_width
  in
  {
    utilization = useful /. capacity;
    switches = !switches;
    overhead_cycles =
      Smt_core.work_done (Chip.exec_core chip 1) Smt_core.Overhead;
  }

let sw_timeshare params ~vms ~vcpus ~slice ~duration =
  if vms <= 0 || vcpus <= 0 then invalid_arg "Vm.sw_timeshare: need vms and vcpus";
  if slice < 1 then invalid_arg "Vm.sw_timeshare: slice must be at least 1 cycle";
  let sim = Sim.create () in
  let sched = Swsched.create sim params ~cores:1 () in
  let active = ref 0 in
  let activation = Array.init vms (fun _ -> Signal.create ()) in
  let stopping = ref false in
  for vm = 0 to vms - 1 do
    for _ = 1 to vcpus do
      let th = Swsched.thread sched () in
      Sim.spawn sim (fun () ->
          while not !stopping do
            if !active = vm then Swsched.exec th guest_chunk
            else ignore (Signal.wait activation.(vm))
          done)
    done
  done;
  let switches = ref 0 in
  Sim.spawn sim (fun () ->
      while not !stopping do
        Sim.delay slice;
        if vms > 1 then begin
          incr switches;
          active := (!active + 1) mod vms;
          Signal.emit activation.(!active) ()
        end
      done);
  Sim.run ~until:duration sim;
  let core = (Swsched.cores sched).(0) in
  let useful = Smt_core.work_done core Smt_core.Useful in
  let capacity =
    float_of_int duration *. float_of_int params.Params.smt_width
  in
  {
    utilization = useful /. capacity;
    switches = !switches;
    overhead_cycles = Swsched.switch_overhead_cycles sched;
  }
