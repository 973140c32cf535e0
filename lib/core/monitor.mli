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
    penalty (a HyperPlane-style overflow structure). *)

type t

type thread_key = { core_id : int; ptid : int }

val create : Params.t -> t

val attach : t -> Memory.t -> unit
(** Hook the registry into a memory so that every store is screened. *)

val arm : t -> thread_key -> Memory.addr -> unit
(** Arm one more address for the thread.  Idempotent per (thread, addr). *)

val disarm : t -> thread_key -> Memory.addr -> unit

val disarm_all : t -> thread_key -> unit

val armed_count : t -> thread_key -> int

val armed : t -> thread_key -> Memory.addr list
(** Addresses currently armed by the thread, in arming order (used by the
    deadlock sanitizer to reason about what could still wake a parked
    thread). *)

val core_armed_count : t -> int -> int
(** Total addresses armed by threads of the given core. *)

val mwait : t -> thread_key -> wake:(Memory.addr -> unit) -> [ `Immediate of Memory.addr | `Parked ]
(** Execute the thread's [mwait]: if a trigger is already latched, consume
    it and return [`Immediate addr] (the thread does not block).  Otherwise
    park the thread; [wake] will be called exactly once with the written
    address when one arrives, and the registry returns to the idle state
    for this thread. *)

val cancel_wait : t -> thread_key -> unit
(** Forget a parked waiter without waking it (used when a waiting thread
    is force-stopped by another thread). *)

val take_waiter : t -> thread_key -> (Memory.addr -> unit) option
(** Atomically detach and return the parked waiter, if any.  Used by the
    spurious-wakeup fault to fire a thread's wake callback without any
    write having happened. *)

val has_waiter : t -> thread_key -> bool
(** Whether the thread currently has a parked waiter. *)

(** {2 Fault injection} *)

val set_fault_hook : t -> (thread_key -> Memory.addr -> bool) -> unit
(** Install a lost-wakeup predicate: consulted once per (watcher, write)
    delivery; returning [true] drops that delivery entirely — the parked
    waiter is not woken and no pending trigger is latched.  Subsequent
    writes are screened afresh, so a later doorbell still wakes the
    thread.  Installed by [Sl_fault.Fault]; at most one hook. *)

val relatch : t -> thread_key -> Memory.addr -> unit
(** Re-arm the pending trigger for a thread whose in-flight wakeup was
    cancelled (by a force-stop racing the wake): the event is latched
    again so the thread's next [mwait] returns immediately.  Coalesces
    with an existing latch. *)

val write_scan_cost : t -> int -> int
(** [write_scan_cost t core_id] is the extra per-write cycles charged on
    the given core's account due to overflow of its fast monitor table. *)

(** {2 Slot-indexed fast path}

    Thread state lives in dense parallel arrays indexed by an interned
    per-key [slot].  A caller that holds a thread for its lifetime (the
    chip does) resolves the slot once and uses these variants to skip
    the key hash on every subsequent operation; the keyed functions
    above are shorthands that intern on each call. *)

val slot_of_key : t -> thread_key -> int
(** Intern [key], allocating its slot on first use.  Slots are stable
    for the lifetime of [t]. *)

val arm_slot : t -> int -> Memory.addr -> unit
val disarm_all_slot : t -> int -> unit

val mwait_slot : t -> int -> wake:(Memory.addr -> unit) -> int
(** Tagged-int {!mwait}: the consumed latched trigger address ([>= 0]),
    or [-1] after parking [wake]. *)

val cancel_wait_slot : t -> int -> unit
val relatch_slot : t -> int -> Memory.addr -> unit
