(** System-call paths (§2 "Exception-less System Calls and No VM-Exits").

    The conventional implementations of "run [kernel_work] cycles of
    kernel code on behalf of the caller":

    - {!Trap}: the conventional synchronous path — mode-switch in, kernel
      work in the caller's context, mode-switch out, then the flat
      pollution charge (the indirect cost the trap caused).
    - {!Flexsc}: exception-less batching via shared pages and a kernel
      worker core ({!Sl_baseline.Flexsc}).

    The paper's design is a {!Hw_channel} to a kernel hardware thread:
    the application stores its arguments, [start]s the server, and blocks
    on the response word with [monitor]/[mwait]; the server stops itself
    when done.  No mode switch anywhere.  {!Round_trip} times all three. *)

module Trap : sig
  val call : Sl_baseline.Swsched.thread -> Switchless.Params.t -> kernel_work:Sl_engine.Sim.Time.t -> unit
  (** Must run inside the software thread's process. *)
end

module Flexsc : sig
  type t

  val create :
    Sl_engine.Sim.t -> ?batch_window:Sl_engine.Sim.Time.t ->
    kernel_core:Switchless.Smt_core.t -> unit -> t

  val call : t -> Sl_baseline.Swsched.thread -> kernel_work:Sl_engine.Sim.Time.t -> unit
  (** Caller charges the entry-posting stores at its own core, then blocks
      until the worker completes the entry. *)
end
