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
(** Emit [count] requests, one event per arrival, with no process.  A
    start event at the current tick (before {!Sl_engine.Sim.run}: at
    time 0) builds the gap sampler and schedules the first arrival;
    each arrival event calls [sink] and schedules the next.  Gaps come
    from {!Arrivals.sampler} (Poisson, bursty MMPP, …; clamped to ≥ 1
    cycle), service demands are drawn from [service] on the same RNG
    stream (clamped to ≥ 0 cycles), one gap then one demand per
    request; the next gap is drawn after [sink] returns.

    [sink] runs in a {!Sl_engine.Sim.schedule} callback at the arrival
    instant, so it must not block: it may send to a mailbox, call
    [Nic.arrive], schedule an event, or start a process with
    [Sim.spawn sim] (which runs at the arrival tick, behind the events
    already due then).  Forking a child, a delay and every blocking wait
    raise there. *)

val utilization :
  rate_per_kcycle:float -> mean_service:float -> servers:float -> float
(** Offered load ρ = λ·E\[S\] / m, for labelling sweep axes. *)
