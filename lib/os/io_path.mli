(** I/O event delivery (§2 "No More Interrupts" / "Fast I/O without
    Inefficient Polling"), as a controlled comparison.

    {!run} builds one complete world — a core, a NIC, an open-loop
    request stream with sampled service demand — and serves [count]
    requests through one {!delivery} design.  Every design sees the same
    packets with the same demands; designs differ only in how the server
    learns that a packet arrived.  The result reports per-request sojourn
    (arrival at the device → processing complete) with SLO accounting,
    plus a cycle-accounting breakdown.  Fixed-cost packets are
    [service = Constant w], which draws no randomness. *)

type stats = {
  processed : int;
  dropped : int;  (** Ring-full drops at the NIC. *)
  dma_dropped : int;  (** Packets lost to injected descriptor-DMA drops. *)
  latencies : Sl_util.Histogram.t;
  elapsed_cycles : Sl_engine.Sim.Time.t;
  useful_cycles : float;  (** Packet + background work. *)
  poll_cycles : float;  (** Pure spinning waste. *)
  overhead_cycles : float;  (** Mode switches, IRQ paths, wake costs. *)
  background_cycles : float;  (** Portion of useful done by the batch job. *)
}

val wasted_fraction : stats -> float
(** (poll + overhead) / (useful + poll + overhead). *)

type config = {
  params : Switchless.Params.t;
  seed : int64;
  arrivals : Sl_workload.Arrivals.t;  (** Arrival process (Poisson, MMPP, …). *)
  service : Sl_util.Dist.t;  (** Per-request service demand (cycles). *)
  count : int;
  slo : int;  (** Latency SLO in cycles for goodput/miss accounting. *)
}

val default_config : config
(** Poisson at 0.5/kcycle, constant 500-cycle packets (offered load 0.25
    of one serving pipe), 2000 requests, 10 µs SLO (30 000 cycles @
    3 GHz). *)

type result = {
  lat : Sl_workload.Latency.summary;
      (** Sojourn quantiles + SLO misses + goodput. *)
  io : stats;  (** The cycle-accounting breakdown. *)
}

type delivery =
  | Mwait
      (** The paper's design: a hardware thread monitors the RX tail and
          sleeps in [mwait]; the tail DMA write wakes it. *)
  | Mwait_hardened of { watchdog : bool; horizon : Sl_engine.Sim.Time.t option }
      (** {!Mwait} that survives a faulty wakeup substrate.  The thread
          waits with {!Switchless.Isa.mwait_for} (20 000-cycle budget); a
          timeout that finds data pending is a missed wakeup, and after 3
          consecutive misses the thread degrades to polling until 64
          consecutive empty checks suggest the storm has passed.  Packets
          lost to descriptor-DMA or ring-full drops count towards
          completion, so the run terminates even when requests vanish.
          The path counts its recoveries in its world
          ({!Sl_engine.Sim.count}): the sites [io.mwait_timeout] (every
          expiry, idleness included),
          [io.missed_wakeup] (an expiry that found data pending),
          [io.fallback] (mwait → polling), [io.recovery] (polling →
          mwait) and [io.crash_restart].
          Progress survives crash-stops: a cold-restarted thread re-arms
          its monitor and resumes from the shared processed count.
          [watchdog] also runs a {!Watchdog} thread on the same core.
          [horizon], when given, bounds the simulated time
          ([Sl_engine.Sim.run ~until]) so a run wedged by an injected
          fault schedule returns with the shortfall visible in its counts;
          the explorer's no-stuck-sim oracle depends on it. *)
  | Rss of int
      (** §4's smartNIC steering: the NIC spreads packets over this many
          RX queues by flow hash and one hardware thread parks on each
          queue's tail.  [Rss 1] is {!Mwait}. *)
  | Polling
      (** A thread spins on the RX queue, burning 20 [Poll] cycles per
          empty check (the kernel-bypass status quo). *)
  | Irq
      (** The kernel status quo, one hardirq per packet: the NIC raises a
          legacy IRQ whose handler runs the scheduler, pulls the
          descriptor and publishes the packet to the app thread's
          backlog.  Handlers serialize on the IRQ context, so the
          delivery path itself caps throughput and the knee arrives
          earlier (receive livelock). *)
  | Napi
      (** Linux NAPI coalescing, {!Irq}'s livelock fix: the first
          packet's IRQ masks further interrupts and wakes the thread,
          which drains the queue and re-enables them only when it runs
          dry.  The fairest conventional baseline at high load. *)
  | Flexsc
      (** FlexSC-style exception-less batching: arrivals are posted
          entries and a kernel worker runs the accumulated requests once
          per 500-cycle batch window.  No per-request notification, so
          its mechanism tax is pure delay. *)

val run : ?background:bool -> delivery -> config -> result
(** Serve [count] requests through one design.  [background] (default
    false) runs a best-effort batch job on the same core, so the run also
    shows whether the design lets other work proceed (the paper's
    co-location argument).  Raises [Invalid_argument] when [count] is
    below 1, and on [Rss q] with [q <= 0]. *)

val run_load_mwait : config -> result
val run_load_polling : config -> result
val run_load_interrupt : config -> result
val run_load_flexsc : config -> result
(** [run Mwait], [run Polling], [run Irq] and [run Flexsc]. *)

(** {2 Timer-tick wakeups (the "no more interrupts" microbench)} *)

val timer_wakeup_mwait : Switchless.Params.t -> ticks:int -> period:Sl_engine.Sim.Time.t -> Sl_util.Histogram.t
(** A kernel thread mwaits on the APIC tick counter; returns the
    distribution of tick-to-running latency.  Raises [Invalid_argument]
    when [ticks < 1]. *)

val timer_wakeup_interrupt : Switchless.Params.t -> ticks:int -> period:Sl_engine.Sim.Time.t -> Sl_util.Histogram.t
(** The conventional path: timer IRQ → handler → scheduler wake of the
    blocked kernel thread.  Raises [Invalid_argument] when [ticks < 1]. *)
