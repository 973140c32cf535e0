(** Open-loop request generation.

    Requests arrive on their own schedule regardless of whether the system
    keeps up — the methodology of the serving papers this work builds on
    (Shinjuku, Shenango, ZygOS): closed-loop generators hide queueing
    collapse; open-loop ones expose it. *)

type request = {
  req_id : int;
  arrival : Sl_engine.Sim.Time.t;  (** Cycle at which the request entered the system. *)
  service_cycles : Sl_engine.Sim.Time.t;  (** Work the request demands. *)
}

val run :
  Sl_engine.Sim.t -> Sl_util.Rng.t -> arrivals:Arrivals.t ->
  service:Sl_util.Dist.t -> count:int -> sink:(request -> unit) -> unit
(** Spawn a generator process emitting [count] requests; [sink] is invoked
    from the generator process at each arrival instant (it may fork, send
    to a mailbox, inject into a device, …).  Gaps come from
    {!Arrivals.sampler} (Poisson, bursty MMPP, …; clamped to ≥ 1 cycle),
    service demands are drawn from [service] on the same RNG stream
    (clamped to ≥ 0 cycles), one gap then one demand per request. *)

val utilization :
  rate_per_kcycle:float -> mean_service:float -> servers:float -> float
(** Offered load ρ = λ·E\[S\] / m, for labelling sweep axes. *)
