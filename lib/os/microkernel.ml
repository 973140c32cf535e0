module Sim = Sl_engine.Sim
module Ivar = Sl_engine.Ivar
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core
module Swsched = Sl_baseline.Swsched

module Sw_service = struct
  type request = { service_work : int; reply : unit Ivar.t }

  type t = {
    params : Params.t;
    inbox : request Mailbox.t;
    mutable served : int;
  }

  let create ?(on_request = fun th w -> Swsched.exec th ~kind:Smt_core.Useful w) sim
      sched params =
    let t = { params; inbox = Mailbox.create (); served = 0 } in
    let service_thread = Swsched.thread sched () in
    let rec serve () =
      let { service_work; reply } = Mailbox.recv t.inbox in
      (* Receive syscall return + the service's own work. *)
      Swsched.exec service_thread ~kind:Smt_core.Overhead
        t.params.Params.trap_exit_cycles;
      on_request service_thread service_work;
      (* Reply syscall: trap in, scheduler wakes the client. *)
      Swsched.exec service_thread ~kind:Smt_core.Overhead
        (t.params.Params.trap_entry_cycles + t.params.Params.sched_decision_cycles);
      t.served <- t.served + 1;
      Ivar.fill reply ();
      serve ()
    in
    (* The loop parks on its inbox between requests by design. *)
    Sim.spawn ~daemon:true sim serve;
    t

  let call t ~client ~service_work =
    (* Send syscall: trap in, enqueue, scheduler wakes the service. *)
    Swsched.exec client ~kind:Smt_core.Overhead
      (t.params.Params.trap_entry_cycles + t.params.Params.sched_decision_cycles);
    let reply = Ivar.create () in
    Mailbox.send t.inbox { service_work; reply };
    Ivar.read reply;
    (* Back on CPU: return-from-syscall on the client side. *)
    Swsched.exec client ~kind:Smt_core.Overhead
      t.params.Params.trap_exit_cycles

  let served t = t.served
end
