(** Discrete-event simulation kernel with coroutine processes.

    Time is a cycle counter represented as an immediate 63-bit native
    [int] (see {!Time}).  Simulated activities are ordinary OCaml
    functions executed as effect-based coroutines: inside a process
    you call {!delay}, {!fork} and {!now} directly, and wait on an
    {!Ivar}, writing blocking-style code (the very model the paper
    advocates for systems software).  A process blocks in one of two
    ways, {!delay} and {!suspend} (on which {!Ivar} and {!await} are
    built).  The event loop is
    single-threaded and deterministic: events with equal timestamps fire
    in scheduling order.

    {2 Typical use}

    {[
      let sim = Sim.create () in
      Sim.spawn sim (fun () ->
          Sim.delay 10;
          Printf.printf "t=%d\n" (Sim.now ()));
      Sim.run sim
    ]} *)

(** The simulated timebase, stated once for the whole stack.

    A tick is one simulated cycle, held in an immediate native [int]
    (63 bits on 64-bit platforms).  2{^62} cycles is ≈ 48 simulated
    years at 3 GHz — far beyond any experiment horizon — so the boxed
    [int64] the engine used previously bought nothing except an
    allocation on every scheduled event.  Overflow policy: ticks are
    never wrapped or masked; arithmetic past [max_tick] is a programming
    error upstream (the engine itself only ever adds delays to the
    current time that keep it within [0, max_tick], and rejects the
    rest).  The type equality [t = int] is deliberately public: callers
    write plain integer literals and arithmetic, and this module is the
    single place documenting what those ints mean. *)
module Time : sig
  type t = int

  val zero : t
  val max_tick : t
  val of_int : int -> t
  val to_int : t -> int
  val to_float : t -> float
  val add : t -> t -> t
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

type t
(** A simulation world: clock, event queue, process bookkeeping. *)

val create : unit -> t

val time : t -> Time.t
(** Current simulated time, readable from outside any process. *)

val events_processed : t -> int
(** Number of events the event loop has popped and run so far in this
    world.  A process that continues inline ({!skip_to}, {!delay})
    pops none, so the count measures the engine's own work, not the
    simulated work.  The bench harness sums this over every world an
    experiment builds and reports events per wall-clock second in its
    perf trailer. *)

val spawn : ?name:string -> ?daemon:bool -> t -> (unit -> unit) -> unit
(** [spawn t f] registers [f] as a process starting at the current time.
    When called before {!run}, the process starts at time 0.  [name] is
    used by {!stuck} to identify processes abandoned mid-wait.
    [daemon] (default [false]) marks a process that is expected to park
    forever (a server loop, an IRQ context): it still appears in {!stuck}
    but is excluded from {!suspects}.  Like every event, the start
    queues behind everything already scheduled for its tick (see {!run}). *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule t ~at f] runs callback [f] (not a blocking process) at
    absolute time [at].  [at] must not precede the current time.  [f]
    runs after every event already scheduled for [at], also when [at] is
    the current time (see {!run}). *)

val run : ?until:Time.t -> t -> unit
(** Drive the event loop until the queue drains, or until simulated time
    would exceed [until] (events at exactly [until] still fire).  Either
    way a bounded run ends — events left beyond the horizon or queue
    drained dry — the clock parks at the horizon, so {!time} reads the
    same in both cases (the clock never moves backwards when [until] is
    already in the past).  Processes still blocked in {!suspend} or
    {!await} when the loop stops are abandoned — inspect {!stuck}
    afterwards to find out whether that happened, instead of discovering
    a wedged model by its silently-missing results.

    Order: events fire by time, and within a tick in the order they were
    scheduled.  The one queue, a {!Wheel}, keeps that order without
    sequence numbers and hands the loop one whole tick at a time; an
    event scheduled for the current tick — [schedule ~at:now], {!spawn},
    {!fork} and every {!wake}, an {!await} resume's too — joins the back
    of that tick, and the clock moves only once the tick is drained.  A horizon behind the
    clock fires nothing, not even events due at the current tick. *)

(** {2 Abandoned-process reporting} *)

type blocked = {
  pid : int;  (** Process id, in spawn order starting at 1. *)
  name : string option;  (** The [?name] given to {!spawn}, if any. *)
  blocked_since : Time.t;
      (** Simulated time of the un-resumed {!await} or {!suspend}. *)
}

val stuck : t -> blocked list
(** Processes currently suspended in {!await} or {!suspend} with no
    resume in flight — after {!run} returns with an empty queue these are
    blocked forever (a deadlocked model, a lost wakeup, or a server
    parked by design).
    Sorted by pid.  Processes merely scheduled past a [?until] horizon are
    not stuck: they still hold a queued event. *)

val stuck_summary : t -> string option
(** Human-readable one-liner of {!stuck} (count plus names/ids), or
    [None] when no process is blocked. *)

val suspects : t -> blocked list
(** {!stuck} minus daemon processes (see {!spawn} and {!set_daemon}): the
    blocked processes that are plausibly deadlocked rather than parked by
    design.  The bench harness surfaces these in its JSON trailer. *)

(** {2 Observation hook} *)

val set_creation_hook : (t -> unit) -> unit
(** Install a callback invoked on every subsequent {!create}.  Used by the
    bench harness to collect the simulation worlds an experiment builds so
    it can report {!suspects} afterwards.  Only one hook at a time, and
    the hook is domain-local: a hook installed in one domain never fires
    for worlds created in another, so parallel experiment runners do not
    share observer state. *)

val clear_creation_hook : unit -> unit
(** Remove the calling domain's hook, if any. *)

(** {2 Operations available inside a process}

    {!delay}, {!suspend} and {!await} block the calling process and
    raise [Effect.Unhandled] outside any process; {!fork} and
    {!set_daemon} are plain calls on it and raise [Invalid_argument]
    there.  All five raise [Invalid_argument] in a {!schedule} callback
    of a run nested inside a process of another world, rather than act
    on that process.  {!now} raises [Invalid_argument] when no world's
    {!run} is executing on the calling domain. *)

val now : unit -> Time.t
(** Current simulated time of the world whose {!run} is executing on
    this domain: inside a process, or inside a {!schedule} callback, it
    is the time of the event being run.  A plain read, no effect: [run]
    records its world in a domain-local slot and gives the caller's
    world back when it returns or raises, so a run nested inside a
    process reads its own clock and the outer world reads its own again
    afterwards.  Raises [Invalid_argument] outside any run. *)

val delay : Time.t -> unit
(** Suspend the calling process for the given number of cycles (≥ 0).
    When nothing else is due by then, the process continues inline
    instead (see {!skip_to}): the clock moves and [delay] returns
    without an event.  A negative delay, or one that would carry the
    clock past {!Time.max_tick}, raises [Invalid_argument] in the
    caller. *)

val quiet_until : t -> Time.t
(** The last tick to which the calling process of [t] may continue
    inline: no event is due in [t] at or before it, and it is within
    the horizon of the executing {!run}.  It may fall a little short of
    the tick before the earliest pending event (see
    {!Wheel.quiet_until}), never past it.  [min_int] when the caller is
    not a process of [t] whose run is executing: in a {!schedule}
    callback, or in code inside a run nested in one of [t]'s processes.
    Moves nothing.  Allocation-free. *)

val skip_to : t -> Time.t -> bool
(** [skip_to t at] is for a process of [t] about to block until tick
    [at] (not before the current time), where one event would resume
    it.  It moves the clock to [at] and returns [true] when nothing
    else can run before the process resumes: [at] is at most
    {!quiet_until}[ t].
    The caller then continues inline, doing in place what the resuming
    event would have done.  Nothing can tell the difference, except
    {!events_processed}.  Otherwise it returns [false] and changes
    nothing, and the caller blocks as usual.  Allocation-free. *)

val fork : (unit -> unit) -> unit
(** Start a child process at the current time.  The child runs after the
    caller next blocks (deterministic FIFO order). *)

val await : (('a -> unit) -> unit) -> 'a
(** [await register] suspends the calling process; [register] receives a
    one-shot [resume] callback that re-enqueues the process with a result
    value.  [resume] may be called immediately or at any later simulated
    time, but at most once: a second call, or a call while the process
    waits in a later [await], raises [Invalid_argument].  Each [await]
    is one {!suspension} whose resume fills a fresh value cell and
    {!wake}s the process: 19 words on OCaml 5.1, the continuation
    included.  Nothing in the simulator's libraries calls it: they wait
    on an {!Ivar}, which parks through {!suspend} (create, blocked read
    and fill: 15 words), and hot paths with a fixed waiter build their
    suspension once.  It stays for perfbench's wake-scale driver, which
    registers resume closures. *)

(** {2 Suspend and wake}

    The one way to park a process until something wakes it.  A caller
    builds a {!suspension} once per waiting point (a thread's wake
    cell, a core's job completion), each process's resume is made once
    with the process, so a suspension allocates only the runtime's
    continuation (2 words on OCaml 5.1), and a wake pushes a
    preallocated event.  The parked continuation is
    reachable only through the process's waker: a world whose process
    is parked for good does not keep that process's stack alive once
    the waker is dropped. *)

type waker
(** The resume of one process, the same for each of its suspensions. *)

val no_waker : waker
(** A placeholder for an empty waker cell.  {!wake} on it raises
    [Invalid_argument]. *)

type suspension
(** A waiting point: its registrar, built once and suspended on any
    number of times. *)

val suspension : (waker -> unit) -> suspension
(** [suspension register] is a waiting point whose suspensions hand
    the suspended process's waker to [register], which stores it where
    the waking side finds it.  [register] runs as the process parks;
    a wake from inside it takes effect once the process has parked. *)

val no_suspension : suspension
(** A placeholder for a suspension field set once its registrar's record
    exists.  A process suspended on it stays parked for good. *)

val suspend : suspension -> unit
(** Suspend the calling process at the waiting point.  The process
    counts as blocked for {!stuck} and {!suspects} until the wake.
    Raises [Invalid_argument] instead of parking a process when the
    suspension comes from a {!schedule} callback of a run nested inside
    that process (the process belongs to another world than the one
    running). *)

val wake : waker -> unit
(** Re-enqueue the suspended process at the current time of its world,
    behind every event already scheduled for that tick.  Allocates
    nothing.  A second wake of one suspension raises [Invalid_argument].  Since the waker
    outlives the suspension, a caller that keeps it must clear its cell
    when it wakes it (see {!no_waker}). *)

val set_daemon : bool -> unit
(** Mark (or unmark) the calling process as a daemon for {!suspects}
    purposes.  Use when a process only becomes park-by-design partway
    through its life (e.g. a hardware thread entering the disabled
    state).  Allocates nothing. *)
