(** Hardware work dispatch to parked threads (§4: "hardware-based (but
    software-managed) thread queuing, load balancing, priorities, and
    scheduling", citing Carbon).

    A dispatch unit holds a queue of work items and a set of parked
    worker hardware threads.  Submitting an item picks a parked worker —
    by the configured policy — and rings its private doorbell after the
    unit's dispatch latency; with no worker free the item queues, and a
    worker finishing its item pulls the next one directly without
    re-parking.

    The policy is the interesting knob, because it interacts with the §4
    state-storage hierarchy:

    - {!Fifo} wakes the longest-parked worker: "fair", but with more
      workers than register-file capacity every wake pays a state
      transfer (the worker pool thrashes through L2/L3);
    - {!Lifo} wakes the most-recently-parked worker: the active set stays
      small and register-file-resident;
    - {!Locality} explicitly prefers a worker whose context is currently
      register-file-resident, falling back to LIFO.

    Parked workers wait in a queue with a newest and an oldest end: a
    pick allocates nothing, whatever the pool's size (Locality scans
    from the newest end).  Experiment E12 quantifies the difference. *)

type policy = Fifo | Lifo | Locality

type t

val create : Chip.t -> core:int -> ?policy:policy -> unit -> t
(** A dispatch unit serving workers that live on [core].  [policy]
    defaults to [Lifo]; a dispatch costs 8 cycles of hardware queue-pop
    + doorbell latency. *)

val worker_loop : t -> Chip.thread -> (int64 -> unit) -> unit
(** [worker_loop t th handle] is the body of a worker thread: forever
    fetch the next item (parking in mwait when the queue is dry) and run
    [handle item].  A wake that dispatched no item (a spurious wake, a
    watchdog nudge) runs nothing: the worker parks again.  Call it from
    the thread's attached body; boot the thread to begin. *)

val submit : t -> int64 -> unit
(** Enqueue one work item.  Callable from any process or callback (it is
    the hardware unit that acts). *)

val queued : t -> int
(** Items waiting for a worker. *)

val dispatched : t -> int
(** Items handed to workers so far. *)
