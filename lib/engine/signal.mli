(** Reusable broadcast conditions.

    Unlike {!Ivar}, a signal can fire repeatedly: every {!emit} wakes
    exactly the processes blocked in {!wait} at that moment.  Processes
    that call {!wait} after an emission wait for the next one — emissions
    are not buffered (model a memory write waking monitors, a doorbell,
    etc.). *)

type 'a t

val create : unit -> 'a t

val wait : 'a t -> 'a
(** Block the calling process until the next {!emit}; returns the emitted
    payload. *)

val emit : 'a t -> 'a -> unit
(** Wake all currently blocked waiters in FIFO order.  No-op when nobody
    waits. *)
