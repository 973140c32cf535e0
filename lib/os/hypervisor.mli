(** VM-exit handling (§2 "Untrusted Hypervisors", "No VM-Exits").

    A guest performs an operation requiring hypervisor service
    ([handle_work] cycles: emulate a privileged instruction, satisfy an
    I/O request, fix a page fault).  Three designs:

    - {!inkernel_exit}: KVM-style — the hypervisor is privileged kernel
      code; the exit costs the architectural VM-exit round trip on the
      guest's own thread.  Fast, but the hypervisor must live in ring 0.
    - {!Isolated}: the paper's design — the guest's privileged action
      faults; hardware writes an exception descriptor and disables the
      guest; an {e unprivileged, user-mode} hypervisor hardware thread
      monitoring the descriptor wakes, emulates, and restarts the guest.
      Isolation without kernel access.
    - {!Remote}: SplitX-style — exits are shipped to a hypervisor spinning
      on another core; low latency but two threads burn polling cycles.

    One descriptor area serves one guest; give each guest its own
    {!Isolated} channel (the paper notes multi-guest fan-in needs a
    software queue). *)

val inkernel_exit :
  Sl_baseline.Swsched.thread -> Switchless.Params.t -> handle_work:Sl_engine.Sim.Time.t -> unit

module Isolated : sig
  type t

  val create : Switchless.Chip.t -> core:int -> hyp_ptid:int -> t
  (** The hypervisor thread is user-mode; its TDT grows an entry per
      installed guest.  Parked between exits by design, it is a daemon,
      not a deadlock suspect. *)

  val install_guest : t -> guest:Switchless.Isa.thread -> unit
  (** Point the guest's exception-descriptor register at this hypervisor
      and grant the hypervisor restart rights.  Setup-time. *)

  val vmexit : Switchless.Isa.thread -> handle_work:Sl_engine.Sim.Time.t -> unit
  (** Execute one exit from inside the guest's body: fault, wait to be
      emulated and restarted. *)

  val exits : t -> int
end

module Remote : sig
  type t

  val create : Switchless.Chip.t -> core:int -> hyp_ptid:int -> unit -> t
  (** The hypervisor thread busy-polls its exit queue on [core], 20
      cycles per empty check, until the guest of its exits is disabled
      (its body has ended), so the simulation drains on its own. *)

  val vmexit : t -> guest:Switchless.Isa.thread -> handle_work:Sl_engine.Sim.Time.t -> unit
  (** Post the exit and spin (guest-side) until handled. *)

  val exits : t -> int
end
