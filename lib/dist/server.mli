(** Thread-per-request servers (§2 "Simpler Distributed Programming" and
    §4's processor-sharing claim).

    An open-loop request stream (Poisson arrivals, configurable
    service-time dispersion) hits a server built two ways:

    - {!run_software}: thread-per-request with {e software} threads
      multiplexed on a conventional machine — run-to-completion FCFS by
      default, or preemptive round-robin with [quantum] (each switch pays
      the full software cost).
    - {!run_hw_pool}: thread-per-request with {e hardware} threads — a
      pool of workers parked in [mwait]; dispatch is a doorbell write, and
      all active requests share the pipeline processor-sharing style.
      The same crash-hardened pool builder serves {!run_hw_pool_closed}.

    The headline metric is the tail of the {e slowdown} distribution
    (response time / service demand, RackSched/Shinjuku methodology):
    under high CV² service times, PS keeps short requests from queueing
    behind long ones, while FCFS multiplexing makes them wait. *)

type stats = {
  completed : int;
  latencies : Sl_util.Histogram.t;  (** Sojourn times (cycles). *)
  slowdowns : float array;  (** Sorted ascending. *)
  elapsed_cycles : Sl_engine.Sim.Time.t;
  switch_overhead_cycles : float;  (** Software-world context-switch tax. *)
}

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0,1]; 0 on empty input. *)

type config = {
  params : Switchless.Params.t;
  seed : int64;
  cores : int;
  rate_per_kcycle : float;
  service : Sl_util.Dist.t;
  count : int;
}

val run_software : ?quantum:Sl_engine.Sim.Time.t -> config -> stats
(** Raises [Invalid_argument] when [cfg.count] is below 1, as do the two
    pool runners below. *)

val run_hw_pool : ?pool_per_core:int -> config -> stats
(** [pool_per_core] defaults to 64 hardware worker threads per core.
    Pool workers and the dispatcher are daemons: idle workers park by
    design, so they never count as deadlock suspects. *)

(** {2 Closed-loop clients}

    The same hardware pool driven by a fixed client population
    ({!Sl_workload.Closedloop}) instead of an open-loop stream: each
    client thinks, submits, and blocks until its request completes, so a
    saturated pool slows the clients instead of growing a queue.  E16
    contrasts the two: the closed loop's p99 stays bounded at client
    counts far past the capacity that collapses the open-loop sweep. *)

type closed_stats = {
  clients : int;
  issued : int;
  finished : int;  (** Requests completed (excludes timeouts). *)
  c_timed_out : int;  (** Requests abandoned by their client's [?timeout]. *)
  lat : Sl_workload.Latency.summary;  (** Submit → complete sojourns. *)
  wall_cycles : Sl_engine.Sim.Time.t;
}

val run_hw_pool_closed :
  ?pool_per_core:int -> ?timeout:Sl_engine.Sim.Time.t -> ?slo:int ->
  ?horizon:Sl_engine.Sim.Time.t ->
  clients:int -> think:Sl_util.Dist.t -> config -> closed_stats
(** [run_hw_pool_closed ~clients ~think cfg] runs [cfg.count] requests
    from [clients] closed-loop clients (think-time distribution [think],
    service demands from [cfg.service]) against the {!run_hw_pool} worker
    pool (the same builder).  [cfg.rate_per_kcycle] is ignored — a closed loop has no offered
    rate, only a population.  [timeout]/[slo] forward to
    {!Sl_workload.Closedloop.start}.

    Both pool runners survive injected crash-stops: a worker's body is its
    own boot path, so a cold restart re-arms the doorbell monitor,
    requeues any request orphaned in its slot (counted under the
    [server.crash_requeue] recovery site) and rejoins the free pool —
    request conservation ([issued = finished + timed_out] here, completed
    = count in {!run_hw_pool}) holds across arbitrary crash schedules as
    long as clients carry a [timeout].  [horizon], when given, bounds the
    simulated time ([Sl_engine.Sim.run ~until]) so a fault schedule that
    wedges the pool returns with the shortfall visible in the counts
    instead of hanging the explorer. *)
