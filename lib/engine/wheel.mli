(** Hierarchical timing wheel: the event queue behind {!Sim}.

    Drop-in replacement for a (time, seq)-keyed binary heap: pops come
    out in exact lexicographic (time, seq) order — property-tested
    against {!Pqueue} as the reference model — but near-term push/pop is
    O(1) amortized instead of O(log pending), because far-future events
    (deadline waits, the [Time.max_tick] park sentinel) wait in outer
    wheel levels or the overflow heap instead of deepening the hot path.

    Structure: 5 levels x 32 slots covering a 2^25-tick window around an
    internal cursor, slot chains in a flat {!Sl_util.Arena}, plus two
    small {!Pqueue}s — a *front* heap every pop funnels through (which
    restores canonical seq order within a tick) and an *overflow* heap
    beyond the window.  See wheel.ml and DESIGN.md ("Event queue v2")
    for the placement rule and the determinism argument.

    Times must be non-negative; [push] accepts any time (a time at or
    before the internal cursor goes straight to the front heap, so late
    scheduling against a parked-ahead clock stays exact). *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] seeds vacated payload slots so popped values are immediately
    collectable (same contract as {!Pqueue.create}). *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** O(1) amortized; allocation-free once arena and heaps are warm. *)

val min_time : 'a t -> int
(** Time of the earliest (time, seq) event.  The queue must be
    non-empty.  May advance the internal cursor (refilling the front
    heap); observable order is unaffected. *)

val min_seq : 'a t -> int
(** Sequence number of the earliest (time, seq) event.  The queue must be
    non-empty.  {!Sim}'s run loop reads it to merge the wheel with its
    same-tick ready ring. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload, lexicographic by
    (time, seq).  The queue must be non-empty. *)
