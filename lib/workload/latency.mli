(** SLO-aware latency accounting for load experiments.

    A thin recorder around {!Sl_util.Histogram} that every serving design
    updates once per completed request with its sojourn time
    (arrival → processing complete, in cycles).  On top of the HDR-style
    quantiles it keeps the two numbers a load sweep actually ranks
    designs by: how many completions blew the latency SLO, and the
    goodput — SLO-compliant completions per 1000 cycles — that survives
    as offered load crosses the saturation knee. *)

type t

type summary = {
  count : int;  (** Completions recorded. *)
  mean : float;
  p50 : int;
  p99 : int;
  p999 : int;
  max_v : int;
  slo : int;  (** The SLO this recorder was created with (cycles). *)
  slo_miss : int;  (** Completions with sojourn > [slo]. *)
  goodput_per_kcycle : float;
      (** SLO-compliant completions per 1000 cycles of elapsed time. *)
}

val create : slo:int -> unit -> t
(** [create ~slo ()] makes an empty recorder with the given latency SLO in
    cycles. *)

val record : t -> int -> unit
(** [record t sojourn] adds one completion; counts an SLO miss when
    [sojourn > slo]. *)

val hist : t -> Sl_util.Histogram.t
val count : t -> int
val slo_miss : t -> int

val met : t -> int
(** Completions within the SLO ([count - slo_miss]). *)

val summarize : t -> elapsed:int -> summary
(** Snapshot quantiles and goodput against [elapsed] simulated cycles. *)

val pp_summary : Format.formatter -> summary -> unit
(** One-line rendering for experiment tables. *)
