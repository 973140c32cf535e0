(** Virtual-machine time-sharing (§2 "Untrusted Hypervisors" meets §4's
    "the OS scheduler will enforce software policies by starting and
    stopping hardware threads").

    Several VMs, each with a set of vCPUs, share a core under a
    hypervisor that time-slices them.  Two worlds:

    - hardware threads: every vCPU is a hardware thread; a world switch
      is [stop] × vCPUs + [start] × vCPUs (tens of cycles, state stays
      in the storage hierarchy);
    - software threads: every vCPU is a software thread; a world switch
      makes each vCPU pay the full software context-switch cost when it
      next runs.

    The figure of merit is guest {e utilization}: useful guest cycles
    divided by the core capacity over the run, as the slice shrinks. *)

type result = {
  utilization : float;  (** Useful guest work / core capacity. *)
  switches : int;  (** World switches performed. *)
  overhead_cycles : float;  (** Mechanism cycles (switching, management). *)
}

val hw_timeshare :
  Switchless.Params.t -> vms:int -> vcpus:int -> slice:Sl_engine.Sim.Time.t ->
  duration:Sl_engine.Sim.Time.t -> result
(** One guest core (plus a hypervisor core); [vms] VMs of [vcpus] hardware
    threads each, round-robin time-sliced every [slice] cycles for
    [duration] cycles.  Raises [Invalid_argument] when [vms], [vcpus] or
    [slice] is below 1. *)

val sw_timeshare :
  Switchless.Params.t -> vms:int -> vcpus:int -> slice:Sl_engine.Sim.Time.t ->
  duration:Sl_engine.Sim.Time.t -> result
(** The conventional equivalent on one software-scheduled core, with the
    same argument checks. *)
