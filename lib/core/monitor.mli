(** Generalized [monitor]/[mwait] address monitoring (§3.1, §4).

    Each hardware thread may arm any number of addresses.  A write to an
    armed address — by a CPU thread, DMA engine, or translated interrupt —
    either wakes the thread (if it is parked in [mwait]) or latches a
    pending trigger so a subsequent [mwait] returns immediately.  The
    latch is what makes the primitive race-free: a wakeup between
    [monitor] and [mwait] is never lost (same contract as x86's armed
    flag).

    The registry also models the hardware cost envelope: each core tracks
    armed addresses in a fast associative table of bounded capacity; when
    a core arms more addresses than fit, writes pay a per-extra-entry scan
    penalty (a HyperPlane-style overflow structure).

    A thread is named by the dense {e slot} its owner gets from
    {!register} (the chip registers one per hardware thread); every
    operation takes that slot.  A parked slot holds no callback of its
    own: the table's one waiter ({!set_waiter}) is told which slot a
    write woke. *)

type t

val create : Params.t -> t

val attach : t -> Memory.t -> unit
(** Hook the registry into a memory so that every store is screened. *)

val set_waiter : t -> (int -> Memory.addr -> unit) -> unit
(** Install the table's waiter, replacing the previous one (a table
    starts with one that does nothing).  [waiter slot addr] runs
    synchronously inside the write to [addr] that wakes the parked
    [slot], once per park.  The chip installs its waiter once, at
    creation. *)

val register : t -> core_id:int -> int
(** Allocate the next slot, a thread of core [core_id] with nothing
    armed, no latched trigger and not parked.  Slots are dense from 0 and
    stable for the lifetime of [t]. *)

val arm : t -> int -> Memory.addr -> unit
(** Arm one more address for the slot.  Idempotent per (slot, addr):
    finding an armed pair costs the shorter of the slot's armed list and
    the address's watcher list, with no table beside them. *)

val disarm_all : t -> int -> unit

val armed : t -> int -> Memory.addr list
(** Addresses currently armed by the slot, in arming order (used by the
    deadlock sanitizer to reason about what could still wake a parked
    thread). *)

val core_armed_count : t -> int -> int
(** Total addresses armed by threads of the given core. *)

val mwait : t -> int -> int
(** Execute the slot's [mwait]: if a trigger is already latched, consume
    it and return its address ([>= 0]; the thread does not block).
    Otherwise park the slot and return [-1]: the next write to an
    address it has armed unparks it and calls the waiter with the slot
    and the written address, exactly once.  Raises [Invalid_argument]
    if the slot is already parked. *)

val cancel_wait : t -> int -> unit
(** Unpark the slot without waking it (used when a waiting thread is
    force-stopped by another thread). *)

val take_waiter : t -> int -> bool
(** Unpark the slot, without calling the waiter, and say whether it was
    parked.  Used by the spurious-wakeup fault, which wakes the thread
    itself although no write happened. *)

val has_waiter : t -> int -> bool
(** Whether the slot is parked. *)

val relatch : t -> int -> Memory.addr -> unit
(** Re-arm the pending trigger for a slot whose in-flight wakeup was
    cancelled (by a force-stop racing the wake): the event is latched
    again so the thread's next [mwait] returns immediately.  Coalesces
    with an existing latch.  If the slot has parked again meanwhile,
    it is unparked and the waiter called at once instead. *)

val write_scan_cost : t -> int -> int
(** [write_scan_cost t core_id] is the extra per-write cycles charged on
    the given core's account due to overflow of its fast monitor table. *)

(** {2 Fault injection} *)

val set_fault_hook : t -> (unit -> bool) -> unit
(** Install a lost-wakeup predicate: consulted once per (watcher, write)
    delivery; returning [true] drops that delivery entirely — the parked
    waiter is not woken and no pending trigger is latched.  Subsequent
    writes are screened afresh, so a later doorbell still wakes the
    thread.  Installed by [Sl_fault.Fault]; at most one hook. *)
