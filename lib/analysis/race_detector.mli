(** Vector-clock data-race detection over simulated memory.

    Every tracked access ({!Switchless.Chip.load}/[store]) is an event;
    happens-before edges come from the paper's inter-thread instructions:

    - [start]: the actor's history transfers to the target (the target's
      subsequent execution is ordered after everything the actor did
      before starting it);
    - [stop]: the target's history transfers to the actor (a successful
      stop means the actor observes the target quiesced);
    - [rpull]: target → actor (reading a stopped thread's registers);
    - [rpush]: actor → target (writing them before a restart);
    - [mwait] wakeup: the clock of the store that triggered the wake
      transfers to the waiter, even though the waiter never loads the
      doorbell word.

    Two models are available:

    - {b hardware-coherent} (default, [check_reads = false]): a load also
      acquires the clock of the word's last writer — word-granular
      coherence, under which single-writer polling loops (e.g. the
      SplitX-style shared-memory hypervisor channel) are legitimately
      ordered.  Only unordered {e write-write} conflicts are reported.
    - {b strict} ([check_reads = true]): TSan-style; loads acquire
      nothing, and unordered read-write pairs are reported too.  Useful
      for models that are supposed to communicate only through monitor
      wakeups and thread lifecycle edges.

    Known limitation: synchronization constructed at the engine level
    ([Sl_engine.Mailbox]/[Ivar] used directly by OS models, e.g. the
    [Hw_channel] reservation, a one-token mailbox) is invisible at ptid
    level and is {e not} credited with edges; workloads serialized only
    by such primitives should run under the default model. *)

open Switchless

type t

val create :
  check_reads:bool ->
  now:(unit -> Sl_engine.Sim.Time.t) ->
  report:(rule:string -> key:string -> message:string -> unit) ->
  t
(** [now] supplies simulated time for finding messages; [report] receives
    each finding (deduplication is the caller's job, via [key]). *)

val on_event : t -> Probe.event -> unit

val writers : t -> Memory.addr -> int list
(** Every ptid that ever performed a tracked store to [addr] (sorted).
    The deadlock sanitizer uses this to build wait-for edges. *)
