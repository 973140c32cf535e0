(** Sparse vector clocks over ptids.

    The race detector keeps one clock per hardware thread; entries absent
    from the table are zero.  Clocks only ever grow, so [e <= get c i] is
    the happens-before test for an access with epoch [e] performed by
    thread [i]. *)

type t

val create : unit -> t
(** The zero clock. *)

val get : t -> int -> int
val tick : t -> int -> unit

val copy : t -> t
(** Snapshot, for release operations (the source keeps evolving). *)

val merge : into:t -> t -> unit
(** Pointwise maximum, for acquire operations. *)
