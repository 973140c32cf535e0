(** Discrete-event simulation kernel with coroutine processes.

    Time is a cycle counter represented as an immediate 63-bit native
    [int] (see {!Time}).  Simulated activities are ordinary OCaml
    functions executed as effect-based coroutines: inside a process
    you call {!delay}, {!fork} and {!now} directly, and wait on an
    {!Ivar}, writing blocking-style code (the very model the paper
    advocates for systems software).  A process blocks in one of three
    ways: {!delay}, {!suspend} (on which {!await} is built) and {!park}
    on a wait {!queue} (on which {!Ivar} and {!Mailbox} are built).  The
    event loop is
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

val spawn_thread : t -> ptid:int -> (unit -> unit) -> unit
(** [spawn_thread t ~ptid f] is [spawn t f] for the instruction stream
    of hardware thread [ptid] (≥ 0, else [Invalid_argument]): the
    process carries the ptid as an int, {!stuck} reports it in
    [blocked.ptid], and {!stuck_summary} names it "ptid-N".  Nothing is
    formatted or boxed per spawn. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule t ~at f] runs callback [f] (not a blocking process) at
    absolute time [at].  [at] must not precede the current time.  [f]
    runs after every event already scheduled for [at], also when [at] is
    the current time (see {!run}). *)

val schedule_tagged : t -> at:Time.t -> tag:int -> (unit -> unit) -> unit
(** [schedule_tagged t ~at ~tag f] is [schedule t ~at f] for an event
    that carries the int [tag]: one callback scheduled with different
    tags can tell its events apart by {!event_tag}, so a caller need
    not allocate a closure per event to capture the difference.  The
    tag changes nothing about when or in which order the event runs.
    Allocation-free once the queue is warm. *)

val event_tag : t -> int
(** The tag of the event that {!run} popped last in [t]: inside a
    {!schedule_tagged} callback, the callback's own tag.  Every other
    event ({!schedule}, {!after}, a process's start, hop or wake) has
    tag 0. *)

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
  ptid : int option;  (** The [~ptid] given to {!spawn_thread}, if any. *)
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
    [None] when no process is blocked.  Each process reads
    "ptid-N (pid P, since T)" when it runs hardware thread N,
    "NAME (pid P, since T)" when it was spawned with a name, and
    "pid P (since T)" otherwise. *)

val suspects : t -> blocked list
(** {!stuck} minus daemon processes (see {!spawn} and {!set_daemon}): the
    blocked processes that are plausibly deadlocked rather than parked by
    design.  The bench harness surfaces these in its JSON trailer. *)

(** {2 Observers}

    Every world component announces itself at the end of its [create]:
    {!create} announces [World], and the chip and the devices extend
    {!component} with their own constructors.  Observers attach to
    components built deep inside experiment runners this way (the bench
    harness collects worlds, fault injection and the sanitizers attach
    to chips and devices) without the builders knowing of them.  The
    observers form one list per domain, so an observer installed in one
    domain never sees components created in another. *)

type component = ..
type component += World of t

val observe : key:string -> (component -> unit) -> unit
(** Append an observer under [key].  Observing under a key already
    present replaces that observer and moves it last.  An observer
    ignores the components it does not match. *)

val unobserve : key:string -> unit
(** Remove the observer under [key], if any; the others stay. *)

val observing : key:string -> (component -> unit) -> (unit -> 'a) -> 'a
(** [observing ~key f body] runs [body] with [f] observing under [key],
    then puts back what [key] held before, also on raise: nothing, or
    the observer [f] replaced (which then runs last). *)

val announce : component -> unit
(** Call every observer on [c], in installation order. *)

val set_creation_hook : (t -> unit) -> unit
(** [observe] of every [World], under a key of its own.  Kept only for
    perfbench/obs.ml; it goes when the benchmark moves to {!observe}. *)

val clear_creation_hook : unit -> unit
(** Remove the observer {!set_creation_hook} installed. *)

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
    caller next blocks (deterministic FIFO order).  A fork and its
    child's run cost 40 words on OCaml 5.1: the child's bookkeeping
    (its process and parking records, hop and waker), its start event
    and its continuation; every process of a world shares the world's
    one effect handler. *)

val after : Time.t -> (unit -> unit) -> unit
(** [after d f] runs callback [f] (not a blocking process) [d] cycles
    from now in the world whose {!run} is executing, behind every event
    already scheduled for that tick: {!schedule} without the world at
    hand.  Callable from a process and from a callback.  From a process,
    [after 0] holds the position a {!fork}ed child's start would, so
    [after 0 (fun () -> after d g)] runs [g] where a child that delays
    [d] and then runs [g] would, without the child.  A negative [d], or
    one past {!Time.max_tick}, raises [Invalid_argument], and so does a
    call while no world's run is executing. *)

val await : (('a -> unit) -> unit) -> 'a
(** [await register] suspends the calling process; [register] receives a
    one-shot [resume] callback that re-enqueues the process with a result
    value.  [resume] may be called immediately or at any later simulated
    time, but at most once: a second call, or a call while the process
    waits in a later [await], raises [Invalid_argument].  Each [await]
    is one {!suspension} whose resume fills a fresh value cell and
    {!wake}s the process: 19 words on OCaml 5.1, the continuation
    included.  Nothing in the simulator's libraries calls it: they wait
    on an {!Ivar}, whose readers {!park} on its wait queue (create,
    blocked read and fill: 14 words), and hot paths with a fixed waiter
    build their suspension once.  It stays for perfbench's wake-scale driver, which
    registers resume closures. *)

(** {2 Suspend and wake}

    The one way to park a process until something wakes it.  A caller
    builds a {!suspension} once per waiting point (a chip's park point,
    a core's job completion), and each process's waker is the record
    where it parks, made once with the process, so a suspension
    allocates only the runtime's continuation (2 words on OCaml 5.1),
    and a wake pushes a preallocated event.  The parked continuation is
    reachable only through the process's waker: a world whose process
    is parked for good does not keep that process's stack alive once
    the waker is dropped. *)

type waker
(** The resume of one process, the same for each of its suspensions:
    the record the process parks in, not a closure. *)

val no_waker : t -> waker
(** The world's placeholder for an empty waker cell: no process parks
    on it, so {!wake} on it raises [Invalid_argument]. *)

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

(** {2 Wait queues}

    The one waiting structure for processes that wait on one another:
    {!Ivar} readers, {!Mailbox} receivers and the software scheduler's
    run queue park on a queue, and whoever wakes them takes them off
    it oldest first.  The queue is a ring of the parked processes'
    records and is its own suspension point, so parking on it and
    waking from it allocate nothing once its ring has grown.  A vacated
    slot keeps nothing of the process that left it. *)

type queue
(** A FIFO of processes parked on it, oldest first. *)

val queue : unit -> queue
(** An empty queue, which is its own suspension point: 5 words on OCaml
    5.1, and a 2-word ring at its first {!park}, doubled when full. *)

val park : queue -> unit
(** Suspend the calling process at the queue's tail, until a
    {!wake_first}, {!wake_all} or {!unpark} takes it off.  It counts as
    blocked for {!stuck}, as in {!suspend}, and raises where {!suspend}
    raises.  Allocates only the runtime's continuation, and the ring's
    growth when it is full. *)

val wake_first : queue -> bool
(** Take the oldest parked process off the queue and {!wake} it, or
    return [false] when none is parked.  The queue keeps nothing of the
    woken process.  Allocates nothing. *)

val wake_all : queue -> unit
(** {!wake_first} until the queue is empty: the processes wake in the
    order they parked. *)

val unpark : queue -> waker -> bool
(** [unpark q w] takes [w] off [q] and wakes it if it is parked there,
    or returns [false] (a waker already taken off, or parked
    elsewhere).  A waker names a process, not one of its waits, so a
    caller that may unpark after the wait it meant has ended must tell
    the two apart itself.  Walks the queue from its oldest process. *)

val self : unit -> waker
(** The calling process's waker, the same for each of its waits: what
    an {!unpark} of it passes.  Raises [Invalid_argument] outside a
    process. *)

(** {2 Stepped waits}

    A wait that blocks again and again (a spin's gaps, a herd's wakes)
    as a sequence of steps that need no fiber switch: the process
    suspends once, and each later wake runs the wait's next step as the
    process, in the hop event that would have resumed it. *)

val finished : suspension
(** What a step returns when its wait is over.  Suspending on it
    raises [Invalid_argument]. *)

val wait : (unit -> suspension) -> unit
(** [wait step] runs [step ()] as the calling process, and returns when
    a step returns {!finished}.  A step that returns another suspension
    has prepared its block there, and the process blocks at it as in
    {!suspend}: the first time, the fiber suspends; at each later wake,
    the next step runs in the hop event that would have resumed the
    fiber, as the process ([quiet_until], {!set_daemon}, {!count} and
    {!stuck} see it as they would see the resumed fiber), and blocks it
    again without resuming the fiber.  The last step continues the
    fiber in that hop, or discontinues it with the exception the step
    raised, so the exception unwinds the fiber from [wait].  No step
    allocates, and the same pushes, ticks and order result as from the
    loop [let rec go s = if s != finished then (suspend s; go (step ()))
    in go (step ())], bar the continuation each of its suspensions
    captures.  A step keeps its state outside the step (it is one
    closure, built once), and must not block in any other way: it runs
    outside the fiber.  Raises as {!suspend} does where a process may
    not suspend. *)

val set_daemon : bool -> unit
(** Mark (or unmark) the calling process as a daemon for {!suspects}
    purposes.  Use when a process only becomes park-by-design partway
    through its life (e.g. a hardware thread entering the disabled
    state).  Allocates nothing. *)

val count : string -> unit
(** [count name] adds one to [name]'s counter in the world whose {!run}
    is executing on this domain (the world {!now} reads).  Hardened paths
    count their recoveries this way.  Each world keeps its own counters,
    none until its first count, so nothing resets them.  Raises
    [Invalid_argument] outside any run. *)

val counts : t list -> (string * int) list
(** The given worlds' counters summed by name, sorted by
    [String.compare]; a name no world counted is absent. *)
