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
    - {!with_all}, which observes chip creation (see [Sim.observe]) for
      the duration of a call, so chips built deep inside experiment
      runners are instrumented too. *)

open Switchless

type config = {
  check_reads : bool;
      (** [true] = strict (TSan-style) read checking; [false] (default) =
          hardware-coherent model where loads acquire the last writer's
          clock and only write-write races are reported.  See
          {!Race_detector}. *)
}

val default_config : config

type t

val enable : ?config:config -> Chip.t -> t
(** Install the probe and a memory write hook on the chip.  Replaces any
    previously installed probe.  The first 100 distinct findings are
    recorded, each with the last 64 probe events as its context. *)

val finish : t -> Report.finding list
(** Run end-of-simulation checks (deadlock, state-store audit), detach
    the probe, and return all findings.  Idempotent. *)

(** {2 Instrumenting chips created elsewhere} *)

val with_all : (unit -> 'a) -> 'a * Report.finding list
(** [with_all f] instruments every chip created while [f] runs (through
    an observer under the key ["analysis"], removed afterwards, also on
    exception), then {!finish}es each of them; findings in chip creation
    order.  A nested call instruments the chips created during it, and
    the enclosing call's observer comes back when it returns. *)
