(** Flat arena of int-keyed, intrusively chained nodes.

    A node is (time, next, tag, payload) spread over parallel unboxed
    arrays; [alloc] and [free] are O(1) and allocation-free once the
    arrays are warm (growth is amortized doubling).  [next] is an
    intrusive link owned by the caller — the timing wheel threads its
    per-slot chains through it — and {!nil} terminates chains.

    Indices are only valid between the [alloc] that returned them and the
    matching [free]; freeing re-seeds the payload slot with [dummy] so
    the stored value is immediately collectable. *)

type 'a t

val nil : int
(** Chain terminator; never a valid node index. *)

val create : dummy:'a -> 'a t

val live : 'a t -> int
(** Nodes currently allocated (and not yet freed). *)

val alloc : 'a t -> time:int -> tag:int -> 'a -> int
(** Fresh node index holding the given time, tag and payload, [next] =
    {!nil}.  The tag is the owner's: the arena only keeps it. *)

val time : 'a t -> int -> int
val next : 'a t -> int -> int
val tag : 'a t -> int -> int
val payload : 'a t -> int -> 'a
val set_next : 'a t -> int -> int -> unit

val free : 'a t -> int -> unit
(** Recycle a node; its payload slot is re-seeded with [dummy]. *)
