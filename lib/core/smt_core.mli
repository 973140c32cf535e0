(** Execution model of one physical core (§4, "Support for Thread
    Scheduling").

    The paper separates two concerns: a small number of SMT pipeline slots
    (width [k], typically 2–4) and a large pool of runnable hardware
    threads multiplexed onto them in hardware, fine-grain round-robin,
    which "emulates processor sharing".  This module implements exactly
    that as an event-driven {e weighted processor-sharing} server:

    - with [n ≤ k] runnable threads executing work, each progresses at
      full speed (rate 1.0 cycle/cycle);
    - with [n > k], the [k] slots are shared in proportion to thread
      weights, each thread's rate capped at 1.0 (a single instruction
      stream cannot exceed one pipeline).

    Software "runs" on a hardware thread by calling {!execute} with a
    cycle count; the call returns when that many cycles of service have
    been delivered.  Stopping a thread mid-execution freezes its remaining
    work; restarting resumes it — which is how [stop]/[start] get their
    transparent semantics.

    Work is tagged with a {!kind} so experiments can separate useful work
    from polling waste and mechanism overhead. *)

type kind = Useful | Poll | Overhead

type t

val create : Sl_engine.Sim.t -> Params.t -> t

val add_slot : t -> ptid:int -> int
(** A fresh slot on this core, the handle that names one thread in
    every call below; its owner keeps it ({!Chip} in each thread's
    record).  Slots are dense from 0.  [ptid] is only the label that
    {!billed_threads} reports; the core keeps no ptid table.  Slot
    order is {!billed_threads}' order. *)

val set_runnable : t -> slot:int -> weight:float -> bool -> unit
(** Admit the slot's thread to (or remove it from) the sharing set.
    Removal with an in-flight {!execute} freezes the job's remaining
    work. *)

val execute : t -> slot:int -> kind:kind -> int -> unit
(** [execute t ~slot ~kind cycles] consumes [cycles] of service on
    behalf of the slot's thread.  Blocks the calling process until done.
    The slot must be runnable when called; it may be paused and resumed
    while in flight.  At most one in-flight [execute] per slot.
    [cycles = 0] returns immediately.  The core's only job may complete
    inline: when nothing else is due before it finishes
    ({!Sl_engine.Sim.skip_to}), the clock moves to its completion and
    [execute] returns without an event or a suspension, with the same
    results. *)

val admit : t -> slot:int -> kind:kind -> int -> Sl_engine.Sim.suspension
(** [admit t ~slot ~kind cycles] is {!execute} without its wait: it
    admits the job and returns [Sim.finished] when the call is over
    (no cycles, or the job completed inline), and otherwise the core's
    suspension, at which the caller must block next, as {!execute}
    does, and where the job's completion wakes it.  Nothing may run
    between the two.  The same checks, with the same messages. *)

val serve_lone_gaps : t -> slot:int -> kind:kind -> int -> unit
(** [serve_lone_gaps t ~slot ~kind gap] does at once what a run of
    [execute t ~slot ~kind gap] calls would do while each one
    continues inline: when the core holds no job, the slot is runnable
    and [gap > 0], it serves every whole gap that ends by
    {!Sl_engine.Sim.quiet_until}, back to back from now, and moves the
    clock to the end of the last.  The clock, the core's state and
    every sum end bit for bit as those executes would leave them: each
    accumulator ({!busy_capacity_cycles}, the kind's {!work_done}, the
    slot's {!thread_cycles}) gets one addition of [gap] per gap.
    Otherwise, and when not even one gap fits, it does nothing.  No
    event, no suspension, no allocation.  For a spinner between checks
    of a condition that nothing but an event can change ({!Chip.spin}). *)

val runnable_count : t -> int
(** Threads currently admitted to the sharing set. *)

val busy_capacity_cycles : t -> float
(** Integral of pipeline capacity actually used, in cycle units (≤ width ×
    elapsed time).  [elapsed × width − busy] is idle capacity. *)

val work_done : t -> kind -> float
(** Service delivered so far, split by work kind. *)

val thread_cycles : t -> slot:int -> float
(** Service delivered to the slot's thread so far — §4's "fine-grain
    tracking of threads' resource consumption for cloud billing".  0 for
    a thread that never ran. *)

val billed_threads : t -> (int * float) list
(** All (ptid, cycles) pairs with non-zero consumption, in slot order. *)

