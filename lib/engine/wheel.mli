(** Hierarchical timing wheel: the one home of a {!Sim} world's pending
    events.

    Events fire by time, and within a tick in push order.  The structure
    keeps that order by itself, with no sequence numbers: every chain is
    a FIFO, the events of one tick always share one chain, and moving a
    chain walks it in order or hands it over whole.  Push and pop are
    O(1), and allocation-free once the node columns are warm.

    Parts: a FIFO ready chain for the tick the internal cursor is at;
    5 levels x 32 FIFO slot chains covering the 2{^25} ticks after it;
    and one FIFO far list for events beyond that window.  Every pending
    event is one node of the wheel's own flat columns (time, link, tag,
    payload), from its push to its pop: the chains link nodes.  See
    wheel.ml and DESIGN.md ("Event queue v4") for the placement rule and
    the order argument.

    Every event carries one int, its tag, beside its payload, for the
    caller to read back when the event pops ({!push_tagged},
    {!popped_tag}).  A tag never affects where an event is kept or when
    it pops.

    Use: {!pop} while {!ready}; once the ready chain is empty, {!advance}
    moves the next tick's events onto it.  Property-tested against
    Pqueue, a (time, seq) heap in test/engine, one tick at a time. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] seeds vacated payload slots so popped values are immediately
    collectable (the contract of test/engine's Pqueue too). *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> 'a -> unit
(** An event at the cursor's tick joins the back of the ready chain; a
    later one is appended to the chain its time dictates.  [time] must
    not precede the cursor, which trails every pending event (raises
    [Invalid_argument] otherwise).  O(1), allocation-free once warm.
    The event's tag is 0. *)

val push_tagged : 'a t -> time:int -> tag:int -> 'a -> unit
(** {!push} of an event whose tag is [tag]. *)

val ready : 'a t -> bool
(** The ready chain holds an event. *)

val quiet_until : 'a t -> int
(** The last tick up to which nothing is pending: every pending event is
    at a later tick ([max_int] when the wheel is empty).  It is the tick
    before the earliest pending event's, or a little earlier when that
    event shares a slot chain with others (the chain reports its slot's
    base tick), never at or past it.  Moves nothing.  O(1),
    allocation-free. *)

val pop : 'a t -> 'a
(** Remove and return the ready chain's oldest event.  The chain must
    not be empty. *)

val popped_tag : 'a t -> int
(** The tag of the event the last {!pop} returned (0 before any). *)

val advance : 'a t -> limit:int -> int
(** The ready chain must be empty.  If the earliest pending tick is at
    most [limit], move the cursor to it, put that tick's events on the
    ready chain in push order and return the tick.  Otherwise return
    [-1]: the cursor may move, but never past [limit]. *)
