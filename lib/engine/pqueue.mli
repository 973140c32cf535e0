(** Binary min-heap keyed by [(time, seq)].

    The reference model of the engine's event order: ties on [time] are
    broken by the caller's sequence number, so a heap fed a monotone
    [seq] pops in (time, push order) — the order {!Wheel} keeps without
    any sequence number.  test/engine checks the wheel and the whole
    {!Sim} run loop against it, and the microbench uses it as the
    wheel's comparator.

    Times are immediate native ints (see [Sim.Time]); the heap stores
    keys and payloads in parallel unboxed arrays, so a push/pop pair
    allocates nothing beyond amortized array growth.  A single packed
    [time*K + seq] int key is deliberately {e not} used: [seq] may grow
    without bound, so no fixed bit split preserves lexicographic
    [(time, seq)] order — instead the comparator reads the two int
    arrays directly. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] is a payload value the queue parks in vacated slots so a
    popped payload becomes collectable the moment the caller drops it
    (a [Fun.id]-style closure for thunk queues).  It is never returned
    by {!pop}. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit

val min_time : 'a t -> int
(** Time of the earliest element.  Undefined (asserts) on an empty
    queue; pair with {!is_empty}.  Allocation-free. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest element's payload (read {!min_time}
    first if the time is needed).  Undefined (asserts) on an empty
    queue.  The queue drops its own reference to the popped payload:
    once the caller lets go of it, it is garbage-collectable (vacated
    slots are re-seeded with [dummy], never left referencing a live
    payload). *)

val pop : 'a t -> (int * 'a) option
(** Option/tuple convenience wrapper over {!min_time} + {!pop_min}. *)

