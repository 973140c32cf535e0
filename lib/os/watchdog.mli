(** A watchdog hardware thread sweeping for lost wakeups.

    The paper's wakeup primitive has no timeout in its basic form: a
    thread whose monitored write was lost parks forever.  The watchdog is
    the system-level safety net — a dedicated hardware thread woken by an
    {!Sl_dev.Apic_timer} tick (itself a monitored-memory write, no
    interrupt) that sweeps the simulation's {!Sl_engine.Sim.stuck} list.
    Any chip thread blocked longer than [stuck_after] cycles and still in
    the [Waiting] state gets {e nudged}: the watchdog re-stores the
    current value of every address the thread has armed, which
    re-triggers monitor delivery without changing protocol state.  The
    woken thread re-checks its predicate exactly as after a spurious
    wakeup, so nudging a thread that was healthy all along is harmless.

    Call {!stop} when the workload completes: it retires the watchdog via
    {!Switchless.Chip.shutdown} so it is not itself reported as a
    deadlock suspect. *)

type t

val create :
  Switchless.Chip.t -> core:int -> ptid:int -> ?period:Sl_engine.Sim.Time.t ->
  ?stuck_after:Sl_engine.Sim.Time.t -> unit -> t
(** Build the watchdog thread and its private timer.  [period] (default
    10_000 cycles) is the sweep tick; [stuck_after] (default 20_000
    cycles) is how long a thread must have been blocked before it is
    nudged.  The thread is born parked — call {!start}. *)

val start : t -> unit
(** Boot the watchdog thread and begin timer ticks. *)

val stop : t -> unit
(** Halt the timer and retire the watchdog thread.  Idempotent. *)

val sweeps : t -> int
(** Timer ticks the watchdog has serviced.  Each stuck thread it re-wakes
    counts ["watchdog.nudge"] in its world ({!Sl_engine.Sim.count}), once
    per thread per sweep however many addresses the thread had armed. *)
