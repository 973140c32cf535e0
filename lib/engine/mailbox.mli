(** Unbounded FIFO queues with blocking receive.

    The workhorse for request queues: producers {!send} without blocking,
    consumers {!recv} and block while empty.  Items are delivered in FIFO
    order; blocked receivers park on the mailbox's {!Sim.queue} and are
    served and woken in FIFO order: {!send} hands its item to the oldest
    parked receiver.  A handed item waits for its receiver in the order
    the receivers were woken, which is the order they run in as long as
    a mailbox's receivers belong to one world.  A blocked receive and
    its send allocate only the item's [Some] (2 words) beside the
    parked process's continuation; buffered items sit in a ring whose
    vacated slots keep nothing alive. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Enqueue an item, waking the longest-blocked receiver if any. *)

val hand : 'a t -> 'a -> bool
(** [hand t v] is {!send} when a receiver is blocked, and returns
    [true]; with none blocked it returns [false] and buffers nothing. *)

val recv : 'a t -> 'a
(** Dequeue the next item, blocking the calling process while empty. *)

val recv_for : 'a t -> within:Sim.Time.t -> 'a option
(** [recv_for t ~within] dequeues like {!recv} but gives up after
    [within] cycles, returning [None] (and leaving no receiver behind:
    the give-up takes the receiver off the queue).
    [within ≤ 0] degenerates to {!try_recv}.  Lets interrupt-driven
    consumers survive a dropped IPI instead of parking forever.  The
    timeout is two callbacks, not a process: one at the current tick
    ({!Sim.after}[ 0]) that schedules the give-up [within] cycles
    later, so it fires where a timer process started by the receive
    would.  A send that beats it leaves the give-up a no-op.  The hop
    is semantics, not an output-order shim: a process that, at the
    receive's tick, waits until the deadline tick runs there before the
    give-up.  Beside [recv_for k], [pause k; send] delivers its item
    (test/engine's FIFO model checks it); a give-up scheduled directly
    would time out instead. *)

val try_recv : 'a t -> 'a option
(** Non-blocking dequeue. *)

val length : 'a t -> int
(** Number of buffered items (excludes blocked receivers). *)
