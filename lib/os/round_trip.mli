(** Round trips: the mechanism tax of one synchronous call (§2's
    exception-less syscalls, kernel registers, microkernel IPC and
    container proxies, untrusted hypervisors).

    Each builder makes one complete world and times every design the
    same way: one client makes one untimed warm-up call, then [calls]
    timed back-to-back calls, and the builder reports the mean cycles
    per timed call.  A design supplies only what one call does.  Both
    builders raise [Invalid_argument] when [calls] is below 1. *)

val software :
  Switchless.Params.t -> calls:int ->
  (Sl_engine.Sim.t -> Sl_baseline.Swsched.t -> Sl_baseline.Swsched.thread -> unit) ->
  float
(** One software-scheduled core ([Swsched.create ~warmup:false ~cores:1]).
    [setup sim sched] installs the service and returns one call of the
    client.  The client thread is registered after the service and warms
    its context with 10 cycles before the warm-up call. *)

val hardware :
  Switchless.Params.t -> calls:int ->
  (Switchless.Chip.t -> Switchless.Chip.thread * (Switchless.Isa.thread -> unit)) ->
  float * Switchless.Chip.t
(** A two-core chip.  [setup chip] installs the server and the client
    thread (its mode and TDT grants are the caller's) and returns the
    client with one call.  The builder attaches the timing body, boots
    the client and runs the world to completion; the chip is returned so
    callers can read its cores' accounting. *)
