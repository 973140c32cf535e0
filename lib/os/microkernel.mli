(** Microkernel service invocation (§2 "Faster Microkernels and Container
    Proxies").

    A user application calls a service (file system, network stack,
    container proxy) that performs [service_work] cycles.  Three worlds:

    - a monolithic kernel: the service is one trap round trip around the
      work ({!Syscall.Trap}), the baseline microkernels are compared
      against;
    - {!Sw_service}: a classic microkernel — the service is its own
      software thread; each request costs a send syscall, a scheduler
      wake-up, a context switch into the service, and the symmetric reply
      path;
    - the paper's design: the service owns a user-mode hardware thread
      and the client starts it directly through a {!Hw_channel},
      achieving XPC-like direct switch without entering the kernel. *)

(** Scheduler-mediated IPC to a software-thread service. *)
module Sw_service : sig
  type t

  val create :
    ?on_request:(Sl_baseline.Swsched.thread -> Sl_engine.Sim.Time.t -> unit) ->
    Sl_engine.Sim.t -> Sl_baseline.Swsched.t -> Switchless.Params.t -> t
  (** Spawns the service loop as a software thread of [sched].  The loop
      is a daemon: parked on its inbox, it is not a deadlock suspect.
      [on_request service work] is the service's work on one request,
      between the receive's return and the reply's trap; by default
      [Swsched.exec service ~kind:Useful work].  A proxy forwards from
      it with a {!call} of its own. *)

  val call : t -> client:Sl_baseline.Swsched.thread -> service_work:Sl_engine.Sim.Time.t -> unit
  (** Must run inside the client's process.  Charges: send-side trap +
      scheduler wake on the client; the service thread's context switch
      and work; reply-side trap + scheduler + the client's re-switch. *)

  val served : t -> int
end
