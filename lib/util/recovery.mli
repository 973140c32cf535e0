(** Named recovery/fallback counters — the coverage signal of the
    fault-space explorer.

    Every hardened path in the system (mwait→polling fallback, Hw_channel
    retry, watchdog nudge, crash-restart requeue, …) bumps a named site
    when it actually fires.  The registry serves two consumers: the bench
    harness reports the per-experiment counts in a JSON trailer next to
    the stuck/suspects line, and [lib/explore] treats the set of fired
    sites (count-bucketed) as branch coverage — a fault schedule that
    lights up a previously-unseen site is kept as a corpus seed.

    Counters are domain-local ([Domain.DLS]), so parallel experiment
    runners never observe each other's recoveries; reset the registry at
    the start of each run whose counts you want isolated. *)

val bump : string -> unit
(** [bump site] increments [site] by one in this domain's registry,
    creating it at 0 first. *)

val get : string -> int
(** Current count for one site, 0 if never bumped. *)

val snapshot : unit -> (string * int) list
(** All nonzero sites, sorted by name — deterministic for JSON output. *)

val reset : unit -> unit
(** Clear every counter in this domain's registry. *)
