(** Runtime invariant sanitizers over the probe stream.

    Rules checked while events flow:

    - {b lifecycle}: every [State_change] must be one of the five legal
      ptid transitions (Disabled→Runnable, Runnable→Disabled,
      Runnable→Waiting, Waiting→Runnable, Waiting→Disabled), the
      Waiting→Runnable one only for reason ["mwait-wake"] or
      ["mwait-deadline"], and must
      depart from the state the sanitizer's own mirror last observed —
      divergence means some code mutated thread state without going
      through the chip's transition functions.  [rpull]/[rpush] must also
      target a mirrored-Disabled thread.
    - {b stale-tdt}: a TDT cache hit must agree with the authoritative
      in-memory table; disagreement means a table update was not followed
      by [invtid] and the hardware acted on a stale translation.
    - {b mwait}: a thread must not park with zero armed monitor
      addresses — nothing could ever wake it.

    Rules checked at {!finish} (and periodically, via {!check_stores}):

    - {b state-store}: per-core tier accounting invariants
      ({!Switchless.State_store.check}).
    - {b deadlock}: a cycle of [Waiting] threads whose armed doorbells
      were only ever written by other members of the cycle.  Threads
      parked on never-written or externally-written (DMA/dispatcher)
      doorbells are deliberately not flagged: an idle worker pool is not
      a deadlock.  The finding includes [Sl_engine.Sim.stuck_summary] so
      engine-level blocked processes are surfaced alongside. *)

open Switchless

type t

val create :
  chip:Chip.t ->
  report:(rule:string -> key:string -> message:string -> unit) ->
  writers:(Memory.addr -> int list) ->
  t
(** [writers addr] must return every ptid that performed a tracked store
    to [addr] (the race detector already knows; see
    {!Race_detector.writers}). *)

val on_event : t -> Probe.event -> unit

val check_stores : t -> unit
(** Audit every core's state store now. *)

val finish : t -> addr_writes:(Memory.addr -> int * int) -> unit
(** End-of-run checks.  [addr_writes addr] is [(total, tracked)] store
    counts for the address — [total > tracked] means some writes came
    from outside the tracked ISA (DMA, device models, test harnesses). *)
