(** Software scheduler: many software threads over few hardware contexts.

    The conventional world the paper argues against.  A machine has
    [cores] physical cores, each exposing [smt_width] hardware contexts
    (logical CPUs).  Software threads contend for contexts through a
    global FIFO run queue; whenever a context picks up a thread different
    from the one it last ran, the full software context-switch cost is
    charged on that context (kernel fixed path + register copy +
    scheduler decision + optional cache warm-up).

    Scheduling disciplines:
    - [quantum = None]: run-to-completion FCFS (each {!exec} runs
      unpreempted);
    - [quantum = Some q]: round-robin with a [q]-cycle time slice — the
      thread re-queues at the tail between slices.

    Software threads are ordinary simulation processes: CPU consumption
    happens only inside {!exec}; a thread blocked on an ivar/mailbox holds
    no context (it has been switched out).  Threads waiting for a context
    block on a [Mailbox] through which a release hands its context to
    the oldest; idle contexts sit on a stack, newest released on top,
    from which the affinity pick removes its context in O(1), so an
    {!exec} on an idle context allocates nothing. *)

type t

type thread

val create :
  Sl_engine.Sim.t -> Switchless.Params.t -> ?warmup:bool ->
  ?quantum:Sl_engine.Sim.Time.t -> cores:int -> unit -> t

val thread : t -> ?vector:bool -> unit -> thread
(** Register a software thread.  [vector] threads carry the 784-byte
    context (FP/SSE state) and make switches against them dearer. *)

val exec : thread -> ?kind:Switchless.Smt_core.kind -> int -> unit
(** Consume CPU: queue for a context, pay the switch cost if the context
    last ran someone else, run (in quanta if preemptive), release.  Must
    be called from within a process. *)

val context_count : t -> int
val switch_count : t -> int
val switch_overhead_cycles : t -> float
(** Total cycles charged to context-switching so far. *)

val cores : t -> Switchless.Smt_core.t array
(** The underlying execution units (for utilization accounting). *)
