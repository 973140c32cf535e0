(** Log-bucketed latency histograms (HdrHistogram-style).

    Values are non-negative integers (cycle counts in this project).  The
    histogram keeps 2^7 sub-buckets per power-of-two range, bounding the
    relative error of reported quantiles by 2^-7 (≤ 0.8%).  Recording is
    O(1) and allocation-free, so histograms can be updated on the
    simulator's hot path. *)

type t

val create : unit -> t
(** An empty histogram. *)

val record : t -> int -> unit
(** [record t v] adds one observation.  Negative values raise
    [Invalid_argument]. *)

val record_n : t -> int -> int -> unit
(** [record_n t v n] adds [n] observations of value [v]. *)

val count : t -> int
(** Number of recorded observations. *)

val min_value : t -> int
(** Smallest recorded value; [0] when empty. *)

val max_value : t -> int
(** Largest recorded value (bucket upper bound); [0] when empty. *)

val mean : t -> float
(** Arithmetic mean of recorded values; [0.] when empty. *)

val quantile : t -> float -> int
(** [quantile t q] with [q] in [\[0, 1\]] returns the smallest recorded
    bucket value at or above the requested rank.  [0] when empty. *)

val merge_into : dst:t -> t -> unit
(** [merge_into ~dst src] adds all of [src]'s observations to [dst]. *)

val reset : t -> unit
(** Forget all observations. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line "n=… mean=… p50=… p99=… p999=… max=…" rendering. *)
