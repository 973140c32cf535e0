(** Service-time and inter-arrival distributions.

    The tail-latency experiments (E7) need precise control over the squared
    coefficient of variation (CV² = Var/Mean²) of service times, because the
    paper's processor-sharing claim only bites when CV² ≫ 1.  Each
    constructor documents its CV². *)

type t =
  | Constant of float  (** Always the given value.  CV² = 0. *)
  | Uniform of float * float
      (** Uniform on [\[lo, hi\]].  CV² = (hi-lo)²/(3(hi+lo)²). *)
  | Exponential of float  (** Exponential with the given mean.  CV² = 1. *)
  | Bimodal of { p_long : float; short : float; long : float }
      (** Value [long] with probability [p_long], else [short].  Tunable
          CV² ≫ 1 — the Shinjuku/Shenango "high dispersion" workload. *)
  | Pareto of { scale : float; shape : float }
      (** Bounded-mean Pareto (shape > 2 for finite variance). *)
  | Lognormal of { mu : float; sigma : float }
      (** Lognormal with underlying normal (mu, sigma). *)

val sample : t -> Rng.t -> float
(** Draw one value.  Always non-negative for the constructors above. *)

val mean : t -> float
(** Analytic mean. *)

val variance : t -> float
(** Analytic variance (infinite Pareto variance reported as [infinity]). *)

val cv2 : t -> float
(** Squared coefficient of variation, Var/Mean². *)

val bimodal_with_cv2 : mean:float -> cv2:float -> p_long:float -> t
(** [bimodal_with_cv2 ~mean ~cv2 ~p_long] constructs the unique bimodal
    distribution with the requested mean and CV² in which the long mode
    occurs with probability [p_long].  Raises [Invalid_argument] when no
    such distribution with non-negative modes exists. *)
