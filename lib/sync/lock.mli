(** Locks for hardware threads, built on the simulated ISA.

    Six designs over the same two-word lock layout (see DESIGN.md,
    "Synchronization on hardware threads"):

    - [Tas] — test-and-set spinlock with capped exponential backoff.
    - [Ticket] — FIFO spinlock: [word] is the next-ticket counter,
      [serving] the now-serving counter; waiters spin with backoff
      proportional to their queue distance.
    - [Mcs_spin] — MCS queue lock: per-waiter qnodes (a grant-epoch word
      and a successor word) live in simulated [Memory]; [serving] is the
      queue tail.  Waiters spin on their own grant word.
    - [Mcs_mwait] — same queue, but the waiter arms a monitor on its
      grant word {e before} publishing itself on the tail and parks in
      [mwait]: one targeted wake per handoff, zero cycles burned waiting.
    - [Park_sw] — software futex baseline: contended waiters pay the
      park/unpark context-switch tax from the cost model
      (scheduler decision + switch + IPI + cache warmup) and block at the
      engine level, exactly what a kernel futex costs today.
    - [Park_mwait] — the paper's answer: waiters arm a monitor on the
      lock word itself and [mwait]; the release store is the wake.
      Blocking costs nothing but the monitor arm; the price is a
      thundering herd (every waiter wakes per release) that this module
      does {e not} hide — E-LOCK measures it.

    Waiters in the two mwait designs re-arm their monitor after any
    crash-stop of the calling thread (a crash clears the hardware monitor
    table), and an optional [patience] turns lost wakeups into bounded
    [mwait_for] retries instead of infinite parks.  MCS queue state,
    like real MCS, is not crash-safe: a waiter that dies on the queue
    wedges it, so chaos scenarios target the parking designs.

    Each contended wait (a spin's gaps and checks, a parked waiter's
    wakes and retries) is a stepped wait ([Sim.wait]): the waiter's
    fiber suspends once, and each later iteration runs as a step in the
    hop that would have resumed it, with the same costs, events and
    order and no allocation.

    Not reentrant; [release] by a non-owner raises [Invalid_argument]. *)

module Chip = Switchless.Chip

type t

type kind = Tas | Ticket | Mcs_spin | Mcs_mwait | Park_sw | Park_mwait

val all_kinds : kind list
val kind_name : kind -> string

(** Instrumentation stream for lockstep model checking: [Join] fires at
    the commit instant of an acquire's first atomic operation (ticket
    draw, tail swap, first CAS), [Grant] when ownership transfers, the
    rest at the obvious points.  The payload is the thread's ptid. *)
type event =
  | Join of int
  | Grant of int
  | Release of int
  | Park of int
  | Wake of int

val create :
  ?patience:int ->
  ?on_event:(event -> unit) ->
  Chip.t ->
  kind ->
  t
(** [patience] (cycles) bounds each mwait park with a deadline; a timeout
    bumps the ["sync.park_retry"] recovery site and retries.  Default:
    park forever (liveness then rests on the release wake or a watchdog
    nudge).  Spin backoff is capped at 2048 cycles. *)

val acquire : t -> Chip.thread -> unit
val release : t -> Chip.thread -> unit
val owner : t -> int
(** Ptid of the current holder, [-1] when free. *)

type stats = {
  acquires : int;
  contended : int;  (** Acquires that took the slow path. *)
  parks : int;  (** mwait parks / software blocks entered. *)
  wakes : int;  (** Returns from a park (incl. spurious herd wakes). *)
  handoff : Sl_util.Histogram.t;
      (** Release-to-grant latency, recorded only when a release had
          waiters pending. *)
  fifo_distance_mean : float;
      (** Mean |grant rank − join rank|; 0 for a perfectly FIFO lock. *)
  counts : (int * int) list;  (** Per-ptid acquire counts, sorted. *)
  max_count : int;
  min_count : int;  (** Fairness spread over threads that ever joined. *)
}

val stats : t -> stats
