(** Fault-scenario registry: every hardened wakeup path, one harness.

    A scenario is one deterministic workload closure plus its oracles:
    given a {!Sl_fault.Fault.plan}, [run] executes the workload under
    the full sanitizer set with the plan ambiently injected, and folds
    every check — the workload's plan-independent invariants (termination
    before the horizon, request conservation, ledger consistency, a
    bounded tail) and sanitizer findings — into one {!outcome}.  The
    outcome also carries what the plan did to the run: the injector's
    per-class fault counts and the per-site recovery counters of the
    worlds the workload built ({!Sl_engine.Sim.counts}), which are the
    explorer's coverage signal and the R1 chaos suite's proof that a
    pinned plan hit what it aimed at.

    Every [run] is a pure function of the plan: same plan, same outcome,
    bit for bit — the property the explorer's replay, shrinking and
    corpus logic and R1's replay check all lean on. *)

type outcome = {
  pass : bool;
  reason : string;  (** [""] when [pass]; failed verdicts joined by ["; "]. *)
  injected : (string * int) list;
      (** {!Sl_fault.Fault.counts}: faults injected, by class. *)
  recovery : (string * int) list;
      (** {!Sl_engine.Sim.counts} of the run's worlds: recovery sites
          that fired. *)
  summary : (string * int) list;
      (** The statistics the workload read, in a fixed order. *)
  findings : Sl_analysis.Report.finding list;
      (** Sanitizer findings (already counted in [reason]), kept whole so
          a failing replay can print them. *)
}

val sites : outcome -> (string * int) list
(** Recovery sites plus ["inj."]-prefixed injected-fault counts, sorted,
    nonzero only — the explorer's coverage features. *)

type t = {
  name : string;
  prob_dims : string list;
      (** Probability knobs (spec keys) this scenario's fault space
          spans; the generator leaves all others at zero. *)
  cycles_dims : (string * int * int) list;
      (** Cycle knobs as [(key, lo, hi)] sampling ranges. *)
  run : Sl_fault.Fault.plan -> outcome;
}

val all : t list
(** - ["pool.closed"]: E16's closed-loop clients against the
      crash-hardened mwait worker pool ({!Sl_dist.Server}); oracles are
      termination before the horizon, request conservation
      (issued = completed + timed out) and SLO-ledger consistency.
      ["pool.closed.r1"] is R1's larger size (300 requests, 8 clients,
      16 workers) with no horizon, so its [wall] statistic is the
      drain time.
    - ["io.hardened"]: the failure-hardened NIC RX path
      ({!Sl_os.Io_path.Mwait_hardened}); oracles are exact request
      accounting (processed + ring-dropped + DMA-dropped = offered),
      missed wakeups never exceeding mwait timeouts, and p99 sojourn at
      most 500 000 cycles.  ["io.hardened.r1"] is R1's 400-request size;
      ["io.watchdog.r1"] adds the {!Sl_os.Watchdog} thread.
    - ["lock.contended"]: six threads contending for a patience-bounded
      [Sl_sync.Lock.Park_mwait] lock; oracles are termination before the
      horizon and grant/increment conservation.  ["lock.watchdog.r1"] is
      R1's lock storm: twelve threads, no patience, liveness from a
      watchdog's re-stores.
    - ["channel.deadline"]: deadline-bounded calls over a
      {!Sl_os.Hw_channel} under delayed start hand-offs and lost wakes;
      oracle: every call succeeds before the horizon.
    - ["nvme.stall"]: an mwait-driven NVMe consumer under completion
      stalls; oracles: every command completes, p99 at most 500 000
      cycles.
    - ["ipi.drop"]: the interrupt baseline under dropped IPIs; oracle:
      every IPI is received or counted dropped.
    - ["watchdog.rescue"]: an unhardened mwait consumer under lost wakes
      and dropped doorbells, rescued only by the watchdog; oracle: every
      packet is processed before the horizon.
    - ["boot.replica"]: a deliberate replica of the publish-before-arm
      boot-window race the static checker once found in
      {!Sl_dist.Server}, with no crash requeue — the seeded regression
      the explorer is expected to find and shrink.

    Every entry but ["boot.replica"] is expected repro-free under the
    explorer; every entry passes at {!Sl_fault.Fault.none}. *)

val find : string -> t option
val names : string list
