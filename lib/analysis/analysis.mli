(** Front door of the simulation sanitizers.

    [Analysis] attaches the {!Race_detector} and {!Sanitizer} to a chip
    through its probe, collects their findings (deduplicated, each with a
    tail of recent probe events as context), and tracks raw-vs-tracked
    store counts so the deadlock heuristic can tell DMA-rung doorbells
    from thread-rung ones.

    Everything is opt-in and default-off: a chip without a probe pays one
    [option] test per instrumented site, so benchmark numbers are
    unaffected unless [SWITCHLESS_SANITIZE] (or a test) turns this on.

    Two ways to attach:
    - {!enable} on a chip you hold;
    - {!enable_all}, which installs the global {!Switchless.Chip}
      creation hook so chips built deep inside experiment runners are
      instrumented too — see {!with_all} for the scoped version. *)

open Switchless

type config = {
  check_reads : bool;
      (** [true] = strict (TSan-style) read checking; [false] (default) =
          hardware-coherent model where loads acquire the last writer's
          clock and only write-write races are reported.  See
          {!Race_detector}. *)
  max_findings : int;  (** Stop recording past this many (still counted). *)
  trace_capacity : int;  (** Probe events kept as context for findings. *)
}

val default_config : config

type t

val enable : ?config:config -> Chip.t -> t
(** Install the probe and a memory write hook on the chip.  Replaces any
    previously installed probe. *)

val finish : t -> Report.finding list
(** Run end-of-simulation checks (deadlock, state-store audit), detach
    the probe, and return all findings.  Idempotent. *)

val findings : t -> Report.finding list
(** Findings so far, oldest first, without running the final checks. *)

val dropped : t -> int
(** Distinct findings discarded because [max_findings] was reached. *)

(** {2 Instrumenting chips created elsewhere} *)

type collector

val enable_all : unit -> collector
(** Instrument every chip created from now on (via the global creation
    hook).  Only one collector can be active at a time. *)

val disable_all : unit -> unit
(** Stop instrumenting newly created chips (already-attached probes keep
    running until {!finish}). *)

val harvest : collector -> Report.finding list
(** {!finish} every chip the collector attached to; findings in chip
    creation order. *)

val with_all : (unit -> 'a) -> 'a * Report.finding list
(** [with_all f] = {!enable_all}, run [f], {!disable_all} (also on
    exception), {!harvest}. *)
