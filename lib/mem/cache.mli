(** Set-associative cache model with LRU replacement.

    Used to model the cache-pollution side of context switches, traps and
    interrupts: the baseline experiments replay working sets through a
    small hierarchy to measure how much warm state a mode switch destroys
    (FlexSC's "indirect cost").  Addresses are byte addresses; lines are
    [line_bytes] wide.

    The model tracks hit/miss counts and an optional pinned region
    (fine-grain partitioning à la Vantage, which the paper proposes for
    keeping critical thread state resident). *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_cycles : int;
  miss_cycles : int;  (** Added on miss (fill from the level below). *)
}

val l1d_default : config
(** 32 KiB, 8-way, 64-byte lines, 4-cycle hit. *)

val l2_default : config
(** 512 KiB, 8-way, 14-cycle hit. *)

type t

val create : config -> t

val access : t -> int -> [ `Hit | `Miss ]
(** Touch the line containing the byte address; updates recency and fills
    on miss (evicting LRU, never evicting pinned lines if avoidable). *)

val access_cycles : t -> int -> int
(** Like {!access} but returns the latency. *)

val pin : t -> int -> unit
(** Pin the line containing the address: it is only evicted when a set is
    entirely pinned. *)

val flush : t -> unit
(** Invalidate everything except pinned lines (a context-switch worth of
    pollution, worst case). *)

val pollute : t -> fraction:float -> Sl_util.Rng.t -> unit
(** Evict approximately [fraction] of resident unpinned lines at random —
    the partial pollution a trap or interrupt causes. *)

val resident : t -> int -> bool
val hits : t -> int
val misses : t -> int
val line_count : t -> int

val warm : t -> start:int -> bytes:int -> unit
(** Touch every line of [start, start+bytes) once (fill without counting
    toward hit/miss statistics). *)

val miss_count_for_working_set : t -> start:int -> bytes:int -> int
(** Walk a working set and return how many of its lines currently miss —
    the warm-up cost probe used by the pollution experiments (counts do
    update recency and fill, and are recorded in statistics). *)
