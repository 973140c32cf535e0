(** Streaming mean/variance accumulator (Welford's algorithm).

    Used for scalar experiment metrics where a full histogram is
    unnecessary (e.g. per-run throughput). *)

type t

val create : unit -> t
val add : t -> float -> unit
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two samples. *)

val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)
