(** The proposed ISA extensions (§3.1), under their paper names.

    Each operation is executed {e by} a hardware thread: the first
    argument is the calling thread's handle and every call consumes
    simulated time on that thread's core, so these must be invoked from
    inside a thread body.  Permission failures and user-mode privileged
    accesses do not raise OCaml exceptions — they write an exception
    descriptor through the caller's exception-descriptor pointer and
    disable the caller, exactly as §3.2 specifies (an OCaml {!Chip.Halted}
    escapes only when no handler is registered anywhere up the chain).

    {2 The instruction set}

    - [monitor <addr>] / [mwait] — arm an address (any number of them) and
      park until one is written, by CPU, DMA, or translated interrupt.
    - [start <vtid>] / [stop <vtid>] — enable/disable the thread a vtid
      maps to, subject to TDT permission bits.
    - [rpull <vtid>, <reg>] / [rpush <vtid>, <reg>, <v>] — remote register
      access to a {e disabled} thread, for swapping software threads in
      and out of hardware threads.
    - [invtid <vtid>] — invalidate this core's cached translation after a
      TDT update.

    Plus ordinary [load]/[store] (a store is what wakes monitors) and the
    privileged TDT-pointer write. *)

type thread = Chip.thread

val exec : thread -> ?kind:Smt_core.kind -> int -> unit
(** Run [cycles] worth of ordinary instructions (placeholder for "the
    thread computes").  Default kind is [Useful]. *)

val spin : thread -> kind:Smt_core.kind -> gap:int -> (unit -> bool) -> unit
(** [spin th ~kind ~gap ready] runs [exec th ~kind gap] until [ready ()]
    holds, checking before each gap: a polling loop, [gap] cycles per
    empty check.  Same clock, events and core state as that loop, bit
    for bit, but an idle stretch with nothing else due costs one call,
    not one per check (see {!Chip.spin}), so [ready] must read only
    state that an event changes, never the clock.  [gap] must be at
    least 1 (a 0 gap would never end). *)

val monitor : thread -> Memory.addr -> unit
(** Arm one more monitored address for the calling thread. *)

val mwait : thread -> Memory.addr
(** Park until a write hits any armed address; returns the address
    written.  Returns immediately (paying only the match cost) when a
    write already arrived since the last wait — the race-free x86
    contract. *)

val mwait_for : thread -> deadline:Sl_engine.Sim.Time.t -> Memory.addr option
(** [mwait] bounded by an absolute deadline (the umwait instruction):
    [None] means the deadline passed with no monitored write.  The basis
    of every failure-hardened wait — a caller that can time out can retry,
    back off, or fall back to polling instead of parking forever behind a
    lost wakeup. *)

val start : thread -> vtid:int -> unit
(** Enable the thread [vtid] maps to.  A disabled target begins executing
    after its state-transfer + pipeline-start latency.  Starting an
    already-runnable target latches a pending enable that absorbs the
    target's next [stop] — the race-free contract that lets a client ring
    a server which has not yet finished parking itself (mirrors the
    monitor/mwait latch). *)

val stop : thread -> vtid:int -> unit
(** Disable the target: freezes it mid-execution, or cancels its wait. *)

val rpull : thread -> vtid:int -> Regstate.reg -> int64
(** Read a register of a disabled target (needs a modify permission). *)

val rpush : thread -> vtid:int -> Regstate.reg -> int64 -> unit
(** Write a register of a disabled target.  GP registers need the
    "modify some" bit; non-control registers need "modify most";
    privileged control registers need a supervisor caller. *)

val invtid : thread -> vtid:int -> unit
(** Flush this core's cached translation for [vtid] (mandatory after a
    TDT update, §3.1). *)

val set_tdt : thread -> Tdt.t -> unit
(** Privileged write of the TDT base register; faults user callers. *)

val load : thread -> Memory.addr -> int64
val store : thread -> Memory.addr -> int64 -> unit

val fault : thread -> Exception_desc.kind -> info:int64 -> unit
(** Deliberately take an exception on the calling thread (divide error,
    page fault, …): descriptor write + self-disable until restarted. *)

(** {2 Secret-key capability scheme (§3.2 alternative to the TDT)}

    "Threads that perform thread management would need to provide the
    target thread's secret key if they are not running in privileged
    mode.  Each thread would set its own key and share it with other
    threads using existing software mechanisms."  The keyed variants
    address targets by raw ptid; a wrong or missing key faults the caller
    with [Permission_denied]. *)

val set_secret : thread -> int64 -> unit
(** Publish (or rotate) the calling thread's own key. *)

val start_keyed : thread -> target_ptid:int -> key:int64 -> unit
val stop_keyed : thread -> target_ptid:int -> key:int64 -> unit
val rpull_keyed : thread -> target_ptid:int -> key:int64 -> Regstate.reg -> int64
val rpush_keyed :
  thread -> target_ptid:int -> key:int64 -> Regstate.reg -> int64 -> unit
