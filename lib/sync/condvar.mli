(** Condition variables on a monitored epoch word.

    A condvar is one [Memory] word holding a broadcast epoch.  [wait]
    arms a monitor on the word and snapshots the epoch {e while still
    holding the lock}, releases, and parks until the epoch moves — the
    arm-and-snapshot-before-release order closes the classic lost-signal
    window.  [broadcast] bumps the epoch with a single store; the
    monitor hardware delivers the wake to every armed waiter, so there
    is no software wake list and no "signal consumed by a dying thread"
    hazard: this module only offers broadcast semantics. *)

module Chip = Switchless.Chip

type t

val create : Chip.t -> t

val wait : t -> Lock.t -> Chip.thread -> unit
(** Caller must hold [lock]; returns holding it again.  Spurious returns
    are absorbed internally (the caller still must re-check its predicate
    after [wait], as with any condvar, because the condition may have
    been consumed by another woken thread). *)

val broadcast : t -> Chip.thread -> unit
(** Wake every current waiter.  May be called with or without the lock
    held; callers that publish state the waiters re-check should do so
    before broadcasting (under the lock). *)
