(** Write-once synchronization variables.

    An ivar starts empty, is filled exactly once, and wakes every process
    blocked in {!read}, in the order they began to read: readers park on
    the ivar's {!Sim.queue}, the same waiting structure {!Mailbox}
    receivers and the software scheduler's run queue park on.  The
    standard way to model a completion notification (e.g. "this unit of
    work finished executing"). *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Raises [Invalid_argument] if already full. *)

val try_fill : 'a t -> 'a -> bool
(** [try_fill t v] fills and returns [true], or returns [false] if already
    full. *)

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** Return the value, blocking the calling process until {!fill}.  Must be
    called from within a simulation process. *)
