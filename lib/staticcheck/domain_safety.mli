(** Rule (2): domain-safety of module-level state.

    A top-level binding whose value is (or transitively contains) an
    unsynchronised mutable cell — [ref], [array], [bytes], [Hashtbl.t],
    [Queue.t], [Stack.t], [Buffer.t], or a record with [mutable]
    fields — is shared by every domain that links the library.  With
    the parallel experiment runner spawning one domain per experiment,
    such state is a data race waiting for a schedule.  [Atomic.t] and
    [Domain.DLS.key] values are the blessed alternatives and pass;
    functions are exempt (each call builds fresh state).  The check is
    on the {e type} of the binding, through abbreviations, tuples and
    [option]/[list]/[result]/[Lazy.t] wrappers. *)

val check : Binding.t -> Site.t list
