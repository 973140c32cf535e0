(** The simulated chip: cores, memory, monitors, and hardware threads.

    [Chip] wires the pieces together and implements the state-transition
    semantics (with their costs) behind the §3.1 instructions.  Most user
    code should go through {!Isa}, which presents the instructions under
    their paper names; [Chip] additionally provides construction, thread
    lifecycle plumbing, and statistics.

    A hardware thread's "instruction stream" is an OCaml function (its
    {e body}) run as a simulation process.  The body receives the thread
    handle and uses {!Isa} operations — [exec] to consume pipeline cycles,
    [monitor]/[mwait] to block on memory, [start]/[stop] to manage other
    threads.  Bodies start executing the first time the thread is started
    (or {!boot}ed). *)

exception Halted of string
(** The chip took an exception with no registered handler — the paper's
    "serious kernel bug akin to a triple-fault". *)

type t

type thread
(** Handle on one hardware thread (a ptid bound to its home core): one
    record per thread, allocated at {!add_thread} and shared by every
    lookup.  It holds all of the thread's state — run state, wake cell,
    counters, flags, registers, and the handles its home core's units
    gave it (monitor and execution-unit slots, state-store entry) — so
    the chip keeps no per-thread array, and only its one ptid table
    ({!find_thread}) is keyed by ptid. *)

val create : Sl_engine.Sim.t -> Params.t -> cores:int -> t

val sim : t -> Sl_engine.Sim.t
val params : t -> Params.t
val memory : t -> Memory.t
val monitor_table : t -> Monitor.t
(** The chip's monitor table.  Its waiter is the chip's, installed at
    {!create}: it wakes the thread whose slot a write unparks.  A slot
    registered on the table directly (E9 fills the table that way) may
    arm addresses, whose writes then latch for it, but must not park. *)

val core_count : t -> int
val exec_core : t -> int -> Smt_core.t
val state_store : t -> int -> State_store.t
val halted : t -> string option

(** {2 Thread construction} *)

val max_ptid : int
(** The largest ptid {!add_thread} takes: [2{^20}], ten times the
    paper's 100 cores × 1,000 threads and far above any ptid the
    simulator's worlds use (9_000 is the largest). *)

val add_thread :
  t -> core:int -> ptid:int -> mode:Ptid.mode -> ?vector:bool ->
  ?weight:float -> unit -> thread
(** Register a hardware thread on its home core.  Its context is admitted
    to the core's state store.  Ptids are unique chip-wide: a taken one
    raises [Invalid_argument], as does a negative one or one above
    {!max_ptid}.  The thread is born disabled with no body.

    The chip's ptid table is direct-mapped: one int for every ptid
    between the lowest and the highest one registered, grown by
    doubling.  Dense ptids cost about one word each; a chip that mixes
    small ptids with a sparse sentinel (a hypervisor at 9_000) carries
    up to about 9,000 ints for the gap, once, and {!max_ptid} bounds
    the window at [2{^20}] ints. *)

val attach : thread -> (thread -> unit) -> unit
(** Give the thread its instruction stream.  May be called once. *)

val boot : thread -> unit
(** Zero-cost supervisor start used during simulation setup (firmware
    would have done it): the thread becomes runnable and its body is
    spawned at the current simulation time. *)

val shutdown : thread -> unit
(** Zero-cost supervisor force-stop, the teardown twin of {!boot}: the
    thread is disabled (a parked mwait is cancelled) so it no longer
    counts as a deadlock suspect.  Used to retire service threads such as
    the watchdog at the end of a run. *)

val find_thread : t -> ptid:int -> thread
(** The thread registered under [ptid].  Raises [Invalid_argument] when
    there is none (a negative ptid, or one above {!max_ptid},
    included). *)

val thread_list : t -> thread list
(** All registered threads, in ptid order. *)

(** {2 Instrumentation}

    A probe observes every architecturally significant action on the chip
    (see {!Probe}).  At most one probe is installed at a time; with none
    installed (the default) the emission cost is a single [option] test
    per site. *)

val set_probe : t -> (Probe.event -> unit) -> unit
val clear_probe : t -> unit

type Sl_engine.Sim.component += Chip of t
(** Announced at the end of every {!create} (see [Sim.observe]): this is
    how [sl_analysis] and [sl_fault] attach to chips built deep inside
    experiment runners without the core depending on them. *)

val add_creation_hook : key:string -> (t -> unit) -> unit
(** [Sim.observe ~key] of every [Chip].  Kept only for perfbench/obs.ml;
    it goes when the benchmark moves to [Sim.observe]. *)

val remove_creation_hook : key:string -> unit
(** [Sim.unobserve ~key]. *)

(** {2 Fault injection}

    Installed per chip by [Sl_fault.Fault]; all four hooks are sampled by
    the wakeup machinery (see {!type:fault_hooks} fields). *)

type fault_hooks = {
  spurious_wake_after : ptid:int -> int option;
      (** Sampled when a thread parks in mwait: [Some d] fires its wake
          callback [d] cycles later although no monitored write happened.
          Woken code observes its predicate still false, as on real
          hardware. *)
  start_extra_cycles : ptid:int -> int;
      (** Sampled at every start hand-off: extra cycles added to the
          wakeup latency (a delayed inter-core start message). *)
  crash_park_after : ptid:int -> (int * int) option;
      (** Sampled when a thread parks in mwait: [Some (after, restart)]
          crash-stops it [after] cycles into the park (if still parked)
          and cold-restarts it [restart] cycles after the crash. *)
  crash_at_wake : ptid:int -> int option;
      (** Sampled as an mwait wake is consumed: [Some restart]
          crash-stops the thread at the wake boundary — the triggering
          write is consumed but nothing has processed it (mid-request
          death) — and cold-restarts it [restart] cycles later. *)
}

val set_fault_hooks : t -> fault_hooks -> unit
val clear_fault_hooks : t -> unit

(** {2 Crash-stop semantics}

    A crash-stop models a hardware thread (or the worker it hosts) dying
    at an arbitrary point: every architectural resource it held vanishes
    on the spot — all armed monitors are disarmed, a latched pending
    start is dropped, the instruction stream is abandoned mid-flight —
    and the thread goes [Disabled] with a ["crash-stop"] state change.
    The cold restart re-spawns the {e attached body from scratch} after
    the fault's restart delay (paying the normal wakeup latency), so
    recovery is the body's own boot path: it must re-arm its monitor,
    re-publish itself to any free pool, and requeue or time out whatever
    request it died holding.  An explicit [start] issued between crash
    and restart also respawns the body (and supersedes the scheduled
    auto-restart). *)

val crash_count : thread -> int
(** Lifetime crash-stops of this thread. *)

val crash_total : t -> int
(** Crash-stops summed over all threads of the chip. *)

(** {2 Thread introspection} *)

val ptid : thread -> int
val home_core : thread -> int
val state : thread -> Ptid.state
val mode : thread -> Ptid.mode
val regs : thread -> Regstate.t
val set_tdt : thread -> Tdt.t -> unit
(** Setup-time assignment of the thread's TDT (no cost, no permission
    check — use {!Isa.set_tdt} for the in-simulation privileged write). *)

val tdt : thread -> Tdt.t option

val armed : thread -> Memory.addr list
(** Addresses the thread has armed, in arming order. *)

val wakeup_count : thread -> int
val start_count : thread -> int

val pin_state : thread -> unit
(** Pin this thread's context in its core's register file (§4
    criticality-based placement). *)

val store_entry : thread -> State_store.entry
(** The thread's context on its home core's {!state_store}, for calls
    such as {!State_store.tier_of} and {!State_store.prefetch}.  The chip
    keeps the one ptid table ({!find_thread}); the units below it name
    the thread by the handles they handed out, this and {!smt_slot}. *)

val smt_slot : thread -> int
(** The thread's slot on its home core's {!exec_core}, for calls such as
    {!Smt_core.thread_cycles}. *)

(** {2 Instruction semantics (used by Isa; callable directly)}

    All of these must be invoked from within the calling thread's body
    (they consume simulated time). *)

val exec : thread -> ?kind:Smt_core.kind -> int -> unit
(** Consume pipeline cycles on the thread's home core ({!Smt_core.execute}). *)

val spin : thread -> kind:Smt_core.kind -> gap:int -> (unit -> bool) -> unit
(** [spin th ~kind ~gap ready] is [while not (ready ()) do exec th ~kind
    gap done]: a polling loop paying [gap] cycles per empty check.  It
    ends at the same tick, with the same events and the same core state,
    bit for bit.  When the core holds no other job, the gaps that end
    before anything else is due are served in one call
    ({!Smt_core.serve_lone_gaps}) with no check between them, so
    [ready] must read only simulated state that nothing but an event
    changes (a device register, a shared word), never the clock.  It
    is a stepped wait ([Sim.wait]): no blocked gap switches fibers, and
    nothing is allocated after the thread's first spin.
    Raises [Invalid_argument] when [gap] is below 1. *)

(** {2 Instruction waits, as steps}

    The waits of {!exec}, {!insn_monitor}, {!insn_mwait} and
    {!insn_mwait_for}, for a stepped wait ([Sim.wait]) of the thread's
    body: the instructions themselves run these and suspend the body at
    each block.  Each [*_op] starts its instruction and returns
    [Sim.finished] when it is over; otherwise the thread blocks at the
    returned suspension, and after each wake {!resume_op} goes on, until
    it returns [Sim.finished].  At most one instruction of a thread is in
    flight.  Outcomes, costs, probes, faults and exceptions are the
    instruction's: a crash at the wake boundary or in the park raises
    the body's crash-stop from the step. *)

val exec_op : thread -> kind:Smt_core.kind -> int -> Sl_engine.Sim.suspension
(** {!exec}'s wait: until the thread is runnable, then its cycles. *)

val monitor_op : thread -> Memory.addr -> Sl_engine.Sim.suspension
(** {!insn_monitor}'s. *)

val mwait_op : thread -> timed:bool -> deadline:Sl_engine.Sim.Time.t -> Sl_engine.Sim.suspension
(** {!insn_mwait}'s, or with [timed] {!insn_mwait_for}'s at [deadline];
    its outcome is then {!mwait_result}. *)

val resume_op : thread -> Sl_engine.Sim.suspension
(** Go on with the instruction in flight after a wake; [Sim.finished]
    at once when none is. *)

val mwait_result : thread -> int
(** What the thread's last finished mwait round returned: the woken
    address, or a negative number after its deadline. *)


val insn_monitor : thread -> Memory.addr -> unit
val insn_mwait : thread -> Memory.addr

(** [mwait] with an absolute deadline (umwait-style): returns the woken
    address ([>= 0]), or a negative number when the deadline passes with
    no monitored write, after paying the normal restart latency (see
    {!Isa.mwait_for}).  A pending latched trigger still returns
    immediately; a write racing the expiry is latched for the next mwait,
    never lost. *)
val insn_mwait_for : thread -> deadline:Sl_engine.Sim.Time.t -> int
val insn_start : thread -> vtid:int -> unit
val insn_stop : thread -> vtid:int -> unit
val insn_rpull : thread -> vtid:int -> Regstate.reg -> int64
val insn_rpush : thread -> vtid:int -> Regstate.reg -> int64 -> unit
val insn_invtid : thread -> vtid:int -> unit
val insn_set_secret : thread -> int64 -> unit
val insn_start_keyed : thread -> target_ptid:int -> key:int64 -> unit
val insn_stop_keyed : thread -> target_ptid:int -> key:int64 -> unit
val insn_rpull_keyed : thread -> target_ptid:int -> key:int64 -> Regstate.reg -> int64
val insn_rpush_keyed :
  thread -> target_ptid:int -> key:int64 -> Regstate.reg -> int64 -> unit
val insn_set_tdt : thread -> Tdt.t -> unit
val load : thread -> Memory.addr -> int64
val store : thread -> Memory.addr -> int64 -> unit

val raise_exception : thread -> Exception_desc.kind -> info:int64 -> unit
(** Fault the calling thread: write a descriptor through its
    exception-descriptor pointer and disable it until restarted.  Raises
    {!Halted} when the thread has no handler registered ([edp = 0]). *)

(** {2 Statistics} *)

type stats = {
  total_wakeups : int;  (** mwait wakeups across all threads. *)
  total_starts : int;  (** disabled→runnable transitions. *)
  total_exceptions : int;
  rf_wakes : int;  (** Wakeups whose state was register-file resident. *)
  l2_wakes : int;
  l3_wakes : int;
  dram_wakes : int;
  demotions : int;
}

val stats : t -> stats
