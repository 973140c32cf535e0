(** Simulated atomic read-modify-write on {!Switchless.Memory} words.

    The simulator's [Isa.load]/[Isa.store] each consume simulated time, so
    a load-modify-store sequence written with them can interleave with
    other threads and is {e not} atomic.  These helpers restore atomicity
    the same way hardware does: the issue cost ([Params.cas_cycles] for an
    RMW, one cycle for a plain access) is paid {e first}, and the memory
    read and write then commit back-to-back inside one event callback with
    no simulated time between them — indivisible at the commit instant.

    All accesses here go through [Memory] directly rather than
    [Isa.load]/[Isa.store], so they are invisible to the race detector's
    per-access probes (like DMA).  That is deliberate: lock words are
    contended by construction, and the happens-before edges a lock
    provides to its critical sections are exactly what the ptid-level
    detector cannot see (see ANALYSIS.md's known-limitation note on
    engine-level synchronization).  A [write] still fires monitor write
    hooks, so mwait-based waiters wake exactly as for an [Isa.store]. *)

module Chip = Switchless.Chip
module Memory = Switchless.Memory

val read : Chip.t -> Chip.thread -> Memory.addr -> int64
(** One-cycle load by [thread], charged as [Overhead]. *)

val poll : Chip.t -> Chip.thread -> Memory.addr -> int64
(** {!read} charged as [Poll]: spin loops poll, so wasted lock-wait
    cycles land in the poll bucket.  Neither allocates. *)

val write : Chip.t -> Chip.thread -> Memory.addr -> int64 -> unit
(** One-cycle store by [thread]; fires monitor write hooks. *)

val cas :
  Chip.t -> Chip.thread -> Memory.addr -> expect:int64 -> desired:int64 -> bool
(** Compare-and-swap: pays [Params.cas_cycles], then atomically replaces
    [expect] with [desired].  Returns whether the swap happened.  A failed
    CAS does not write (and so wakes no monitors). *)

val exchange : Chip.t -> Chip.thread -> Memory.addr -> int64 -> int64
(** Atomic swap; returns the previous value. *)

val fetch_add : Chip.t -> Chip.thread -> Memory.addr -> int64 -> int64
(** Atomic add; returns the previous value. *)
