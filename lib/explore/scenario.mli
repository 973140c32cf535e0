(** Fault-space exploration targets.

    A scenario is one deterministic workload closure plus its oracles:
    given a {!Sl_fault.Fault.plan}, [run] executes the workload under
    the full sanitizer set with the plan ambiently injected, and folds
    every check — end-to-end invariants (no stuck sim, request
    conservation, ledger consistency) and sanitizer findings — into one
    {!outcome}.  The outcome also carries the coverage signal the
    explorer feeds on: per-site recovery counters
    ({!Sl_util.Recovery}) merged with the injector's per-class fault
    counts (prefixed ["inj."]).

    Every [run] is a pure function of the plan: same plan, same outcome,
    bit for bit — the property the explorer's replay, shrinking and
    corpus logic all lean on. *)

type outcome = {
  pass : bool;
  reason : string;  (** [""] when [pass]; oracle verdicts joined by ["; "]. *)
  sites : (string * int) list;
      (** Recovery sites + ["inj."]-prefixed injected-fault counts,
          sorted, nonzero only. *)
}

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
    - ["io.hardened"]: the failure-hardened NIC RX path
      ({!Sl_os.Io_path.Mwait_hardened}); oracle is exact request
      accounting (processed + ring-dropped + DMA-dropped = offered).
    - ["lock.contended"]: six threads contending for a patience-bounded
      [Sl_sync.Lock.Park_mwait] lock; oracles are termination before the
      horizon and grant/increment conservation.  Expected repro-free:
      patience turns lost wakes into bounded retries and cold restarts
      resume from durable progress.
    - ["boot.replica"]: a deliberate replica of the pre-PR-6
      publish-before-arm boot-window race, with no crash requeue — the
      seeded regression the explorer is expected to find and shrink. *)

val find : string -> t option
val names : string list
