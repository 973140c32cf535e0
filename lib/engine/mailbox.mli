(** Unbounded FIFO queues with blocking receive.

    The workhorse for request queues: producers {!send} without blocking,
    consumers {!recv} and block while empty.  Items are delivered in FIFO
    order; blocked receivers are served and woken in FIFO order, each
    waiting on an {!Ivar} of its own that {!send} fills. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Enqueue an item, waking the longest-blocked receiver if any. *)

val recv : 'a t -> 'a
(** Dequeue the next item, blocking the calling process while empty. *)

val recv_for : 'a t -> within:Sim.Time.t -> 'a option
(** [recv_for t ~within] dequeues like {!recv} but gives up after
    [within] cycles, returning [None] (and leaving no receiver behind).
    [within ≤ 0] degenerates to {!try_recv}.  Lets interrupt-driven
    consumers survive a dropped IPI instead of parking forever.  The
    timeout is two callbacks, not a process: one at the current tick
    ({!Sim.after}[ 0]) that schedules the give-up [within] cycles
    later, so it fires where a timer process started by the receive
    would.  A send that beats it leaves the give-up a no-op. *)

val try_recv : 'a t -> 'a option
(** Non-blocking dequeue. *)

val length : 'a t -> int
(** Number of buffered items (excludes blocked receivers). *)
