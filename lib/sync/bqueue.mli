(** Bounded producer-consumer queue on a {!Lock} and two {!Condvar}s.

    Items are int64 payloads stored in a simulated-[Memory] ring; [put]
    blocks while full, [get] while empty.  The conservation law the
    property suite and chaos scenarios assert:
    [produced t = consumed t + length t] at any quiescent point. *)

module Chip = Switchless.Chip

type t

val create : Chip.t -> capacity:int -> t
(** The lock is a [Park_mwait] lock — the paper's design — that parks
    without a deadline. *)

val lock : t -> Lock.t

val put : t -> Chip.thread -> int64 -> unit
val get : t -> Chip.thread -> int64

val length : t -> int
val produced : t -> int
val consumed : t -> int
