(** The static checker: rules over the [.cmt] typedtrees dune already
    produces, surfaced as [switchless-sim check].

    - [missing-mli] — {!missing_mli}: every unit ships an interface.

    - [park-before-arm] / [register-before-arm] — {!Protocol}: the
      monitor/mwait boot-window protocol.
    - [domain-safety] — {!Domain_safety}: top-level mutable state must
      be [Atomic.t] or [Domain.DLS].
    - [determinism] / [no-print] / [no-blanket-catch] /
      [hashtbl-order] / [poly-compare] — {!Purity}: hygiene rules on
      resolved identifiers.
    - [zero-alloc] — {!Zero_alloc}: the [\[@@sl.zero_alloc\]] hot-path
      allocation budget.

    Findings dedupe per static site and flow through
    {!Sl_analysis.Report} (see {!Site.to_report}); deliberate
    exceptions live in a committed allowlist ([staticcheck.allow]),
    one justified line each. *)

val missing_mli : Cmt_load.unit_ -> Site.t list
(** One [missing-mli] finding when the unit was compiled without an
    interface. *)

type result = {
  findings : Site.t list;  (** not covered by the allowlist: failures *)
  allowed : Site.t list;  (** suppressed by a justified allowlist entry *)
  unused : Allowlist.entry list;
      (** stale allowlist entries that matched nothing — also failures,
          so the allowlist cannot rot *)
}

val run : ?allow:string -> string list -> result
(** Findings over the build trees of the given source roots, deduped,
    in deterministic (file, line, rule) order and filtered through the
    allowlist at [allow] (default [staticcheck.allow]; a missing file is
    an empty allowlist).  Raises [Failure] when a root has not been
    built. *)
