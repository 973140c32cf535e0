(** Deterministic, schedule-driven fault injection.

    The paper's wakeup primitive assumes a perfect substrate: every DMA
    doorbell lands, every [mwait] wakes exactly once, every IPI arrives.
    This module makes those assumptions breakable on purpose — a
    {!plan} assigns each fault class a probability, an injector ({!t})
    samples per-class SplitMix64 streams split from the plan's seed, and
    hooks installed into the existing layers perturb exactly the events
    the plan names:

    - NIC: dropped descriptor DMA, dropped and duplicated doorbell-tail
      writes ([Sl_dev.Nic]);
    - NVMe: completion stalls / latency spikes ([Sl_dev.Nvme]);
    - chip: lost mwait wakeups (dropped monitor deliveries), spurious
      mwait wakeups, delayed start hand-offs ([Switchless.Chip],
      [Switchless.Monitor]);
    - state store: context-read corruption, ECC-corrected (costed retry)
      vs silent (counted only) ([Switchless.State_store]);
    - interrupt baseline: dropped IPIs ([Sl_baseline.Irq]).

    Everything is a pure function of the plan (seed included) and the
    simulated schedule: no wall-clock, no global entropy — replaying a
    run with the spec recorded in its JSON header reproduces every fault
    at the same simulated instant. *)

type plan = {
  seed : int64;  (** Root of every per-class stream. *)
  nic_doorbell_drop : float;  (** P(drop a tail-doorbell write). *)
  nic_doorbell_dup : float;  (** P(replay a tail-doorbell write). *)
  nic_dma_drop : float;  (** P(lose a descriptor DMA, packet and all). *)
  nvme_stall : float;  (** P(a command's completion stalls). *)
  nvme_stall_cycles : int;  (** Extra latency of a stalled completion. *)
  mwait_lost : float;  (** P(drop one monitor delivery to one watcher). *)
  mwait_spurious : float;  (** P(a parked thread wakes with no write). *)
  mwait_spurious_delay : int;  (** Cycles from park to spurious wake. *)
  start_delay : float;  (** P(a start hand-off is delayed). *)
  start_delay_cycles : int;  (** Extra cycles of a delayed hand-off. *)
  store_ecc : float;  (** P(context read hits an ECC-corrected flip). *)
  store_silent : float;  (** P(context read corrupts silently). *)
  ipi_drop : float;  (** P(an IPI is lost after the send cost). *)
  crash_park : float;
      (** P(a parked thread crash-stops mid-mwait).  See
          {!Switchless.Chip.crash_count} for the semantics: monitors
          disarmed, body abandoned, cold restart re-runs it from
          scratch. *)
  crash_wake : float;
      (** P(a thread crash-stops at the wake boundary — doorbell
          consumed, request unprocessed: the mid-request death). *)
  crash_park_delay : int;
      (** Max cycles into a park at which a [crash_park] lands (the
          actual offset is drawn uniformly from [\[0, delay)]). *)
  crash_restart_cycles : int;  (** Crash-to-cold-restart delay. *)
  crash_boot_window : int;
      (** When nonzero, crashes only land before this simulated time —
          correlated crash storms during boot/warm-up, after which the
          system must recover unaided.  0 = crashes any time. *)
}

val none : plan
(** All probabilities zero, seed 1, default cycle knobs — the identity
    plan.  Build real plans with [{ Fault.none with ... }]. *)

val is_active : plan -> bool
(** Whether any fault class has nonzero probability. *)

(** {2 Spec strings}

    The replay-friendly encoding used by the [SWITCHLESS_FAULTS]
    environment hook and recorded in experiment JSON headers:
    ["seed=42,nic.doorbell_drop=0.01,mwait.lost=0.05"].  Keys match plan
    fields with the underscore after the subsystem replaced by a dot;
    omitted keys keep their {!none} value. *)

val parse_spec : string -> (plan, string) result

val to_spec : plan -> string
(** Canonical spec: seed plus every field differing from {!none}.
    Round-trips through {!parse_spec} {e exactly} —
    [parse_spec (to_spec p) = Ok p] for every valid plan, arbitrary
    float probabilities included (shortest decimal that parses back to
    the same double) — so a shrunk schedule replayed verbatim through
    the [SWITCHLESS_FAULTS] hook reproduces its run bit-for-bit. *)

(** {2 Plan knobs by key}

    Generic access to the plan fields under their spec keys, for code
    that treats plans as points in a fault space (the explorer's
    generator, mutator and shrinker) rather than as records.  All raise
    [Invalid_argument] on unknown keys or kind mismatches. *)

val prob_keys : string list
(** Every probability knob's spec key, in canonical field order. *)

val cycles_keys : string list
(** Every cycle-count knob's spec key, in canonical field order. *)

val prob : plan -> string -> float
val with_prob : plan -> string -> float -> plan
(** [with_prob p key v] — [v] must be in [\[0,1\]]. *)

val cycles : plan -> string -> int
val with_cycles : plan -> string -> int -> plan
(** [with_cycles p key v] — [v] must be non-negative. *)

(** {2 Injectors} *)

type t
(** A live injector: one plan, per-class RNG streams, hit counters. *)

val create : plan -> t

val plan : t -> plan

val counts : t -> (string * int) list
(** Faults actually injected so far, keyed by fault class (spec-key
    names), nonzero entries only, in a fixed order. *)

val count : t -> string -> int
(** Injected count for one class key, 0 if none. *)

val total_injected : t -> int

(** {2 Attaching to targets}

    Each [attach_*] installs this injector's hooks into one instance.
    Draws consume randomness only for classes with nonzero probability,
    so unrelated subsystems keep identical schedules. *)

val attach_chip : t -> Switchless.Chip.t -> unit
(** Installs the monitor delivery-drop hook, the chip spurious-wake,
    start-delay and crash-stop hooks, and a corruption hook on every
    core's state store. *)

val attach_nic : t -> Sl_dev.Nic.t -> unit

(** {2 Ambient installation}

    Experiments build chips and devices deep inside their runners, so the
    injector observes their creation (see [Sim.observe]) and attaches
    itself to every instance created while it observes — the mechanism
    behind the [SWITCHLESS_FAULTS] env hook in [bench/main.ml]. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Runs [f] with one observer, under the key ["fault"], that attaches
    this injector to every chip, NIC, NVMe device and IRQ controller
    created meanwhile.  Afterwards, even if [f] raises, the key holds
    again what it held before: nothing, or the injector of an enclosing
    [with_ambient]. *)
