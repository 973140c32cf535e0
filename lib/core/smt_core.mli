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

val create : Sl_engine.Sim.t -> Params.t -> core_id:int -> t

val core_id : t -> int

val set_runnable : t -> ptid:int -> weight:float -> bool -> unit
(** Admit the ptid to (or remove it from) the sharing set.  Removal with
    an in-flight {!execute} freezes the job's remaining work. *)

val execute : t -> ptid:int -> kind:kind -> int -> unit
(** [execute t ~ptid ~kind cycles] consumes [cycles] of service on behalf
    of the ptid.  Blocks the calling process until done.  The ptid must be
    runnable when called; it may be paused and resumed while in flight.
    At most one in-flight [execute] per ptid.  [cycles = 0] returns
    immediately.  The core's only job may complete inline: when nothing
    else is due before it finishes ({!Sl_engine.Sim.skip_to}), the clock
    moves to its completion and [execute] returns without an event or a
    suspension, with the same results. *)

(** {2 Slot-keyed entry points}

    The same operations keyed by the thread's dense slot on this core
    instead of its ptid, for callers on the per-event path ({!Chip}) that
    cache the slot instead of paying a ptid lookup per call. *)

val slot : t -> ptid:int -> int
(** The ptid's slot on this core, interned on first use ({!Chip} interns
    each thread's slot when the thread is added).  Interning order is
    {!billed_threads}' order. *)

val set_runnable_slot : t -> slot:int -> weight:float -> bool -> unit
(** {!set_runnable} by slot. *)

val execute_slot : t -> slot:int -> kind:kind -> int -> unit
(** {!execute} by slot. *)

val runnable_count : t -> int
(** Threads currently admitted to the sharing set. *)

val busy_capacity_cycles : t -> float
(** Integral of pipeline capacity actually used, in cycle units (≤ width ×
    elapsed time).  [elapsed × width − busy] is idle capacity. *)

val work_done : t -> kind -> float
(** Service delivered so far, split by work kind. *)

val thread_cycles : t -> ptid:int -> float
(** Service delivered to one thread so far — §4's "fine-grain tracking of
    threads' resource consumption for cloud billing".  0 for threads that
    never ran here. *)

val billed_threads : t -> (int * float) list
(** All (ptid, cycles) pairs with non-zero consumption, unordered. *)

