module Params = Switchless.Params
module Smt_core = Switchless.Smt_core
module Swsched = Sl_baseline.Swsched

module Trap = struct
  let call thread params ~kernel_work =
    Swsched.exec thread ~kind:Smt_core.Overhead
      params.Params.trap_entry_cycles;
    Swsched.exec thread ~kind:Smt_core.Useful kernel_work;
    Swsched.exec thread ~kind:Smt_core.Overhead
      params.Params.trap_exit_cycles;
    (* Indirect cost: the caches/TLB the trap polluted slow the
       application down after returning. *)
    Swsched.exec thread ~kind:Smt_core.Overhead
      params.Params.trap_pollution_cycles
end

module Flexsc = struct
  type t = { worker : Sl_baseline.Flexsc.call Sl_baseline.Flexsc.t }

  (* Posting a syscall entry to the shared page: a handful of stores. *)
  let post_cycles = 8

  let create sim ?batch_window ~kernel_core () =
    { worker = Sl_baseline.Flexsc.create sim ?batch_window ~core:kernel_core () }

  let call t thread ~kernel_work =
    Swsched.exec thread ~kind:Smt_core.Overhead post_cycles;
    Sl_baseline.Flexsc.call t.worker ~kernel_work
end
