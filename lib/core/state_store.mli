(** Tiered storage for hardware-thread register state (§4).

    Each core stores context for its many hardware threads across a
    hierarchy: a large register file close to the pipeline, then a
    reserved slice of the private L2, a slice of the shared L3, and
    finally DRAM (unbounded).  Waking a thread whose state is not
    register-file-resident pays the bulk-transfer cost of its tier; the
    wake also promotes the state to the register file, demoting the
    coldest resident contexts to make room (write-back happens off the
    critical path, so demotion is free for the waking thread but counted
    in statistics).

    Threads can be pinned to the register file — the paper's "selecting
    which threads are stored closer to the core based on criticality" —
    and prefetched — "hardware prefetching of the state of recently woken
    threads". *)

type tier = Register_file | L2 | L3 | Dram

val pp_tier : Format.formatter -> tier -> unit
val tier_name : tier -> string

type t

val create : Params.t -> t
(** One store per core. *)

type entry
(** One registered context: the handle its owner keeps and passes to
    every operation below.  The store has no ptid table, so there is no
    lookup on any path; an entry of another store is a programming
    error.  Ptids are not checked for uniqueness here ({!Chip.add_thread}
    rejects a taken one). *)

val register : t -> ptid:int -> bytes:int -> entry
(** Admit a new thread's context, placed in the fastest tier with free
    space (no eviction on admission), and return its entry.  [ptid] is
    the label that {!check} reports and the fault hook receives. *)

val placeholder : unit -> entry
(** An entry of no store, for a record that needs one before it has a
    context.  Passing it to an operation of a store is a programming
    error. *)

val tier_of : t -> entry -> tier

val wake_transfer_cycles : t -> entry -> int
(** Cost (cycles) of bringing the context to the register file from
    its current tier — 0 when already resident — and perform the
    promotion, evicting cold contexts as needed.  The caller adds the
    pipeline start cost.  Allocates nothing, also when the promotion
    demotes a chain of contexts down the tiers (an installed fault hook
    allocates what it allocates). *)

val touch : t -> entry -> unit
(** Mark the context as recently used (run by the recency policy). *)

val pin : t -> entry -> unit
(** Keep this context in the register file permanently.  Raises
    [Invalid_argument] when the register file cannot hold all pinned
    contexts. *)

val unpin : t -> entry -> unit

val prefetch : t -> entry -> unit
(** Promote the context to the register file in the background (no
    cost charged); a subsequent wake finds it resident. *)

val used_bytes : t -> tier -> int

val capacity_bytes : t -> tier -> int
(** [max_int] for {!Dram}. *)

val check : t -> string list
(** Audit the store's internal invariants: per-tier [used] counters match
    the sum of resident entries, no bounded tier exceeds its capacity,
    pinned contexts are register-file resident, and the per-tier recency
    lists are sorted, hold only their tier's entries and together hold
    every registered entry.  It walks those lists, the store's only
    index (pinned findings in ptid order).  Returns a
    human-readable description of each violation (empty = healthy).
    Used by the analysis sanitizer; a non-empty result indicates a bug in
    the placement policy itself. *)

val transfer_count : t -> tier -> int
(** Number of wake transfers served from the given tier so far (for
    {!Register_file} this counts zero-cost resident wakes). *)

val demotion_count : t -> int
(** Total contexts demoted to make room. *)

(** {2 Fault injection} *)

type corruption = Ecc_corrected | Silent
(** A corrupted context read: [Ecc_corrected] is detected by the ECC logic
    and transparently re-read (the wake pays the transfer cost twice);
    [Silent] escapes detection and costs nothing, mirroring real silent
    data corruption that no sanitizer can observe in-band; only the
    injector's own count ([store.silent] in [Sl_fault.Fault.counts])
    knows it struck. *)

val set_fault_hook : t -> (ptid:int -> corruption option) -> unit
(** Install a corruption predicate consulted once per
    {!wake_transfer_cycles}.  Installed by [Sl_fault.Fault]; at most one
    hook. *)

