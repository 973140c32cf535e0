(** The one allocation meter of the bench harness, E-LOCK's audit and
    the microbench: take the difference of two readings. *)

val words : unit -> float
(** Words allocated so far: [Gc.minor_words ()], which counts the words
    still in the minor heap (on OCaml 5.1 [Gc.allocated_bytes] counts
    them at an eighth), plus the words allocated directly in the major
    heap, [Gc.quick_stat]'s major words minus the promoted ones.  That
    major part sums every domain of the process, so read it at [-j 1],
    and on OCaml 5.1 it is not exact either: it moves with the heap's
    state (50 blocks of 10,001 words read as 480,105 words in a fresh
    process and as 740,720 beside a million live words), so a window's
    reading can depend on the work before it.  The minor part is
    exact, so the gated allocation count is minor words alone: the
    bench harness records the [Gc.minor_words] delta per experiment
    beside this meter's, and test/golden's counts files pin it for the
    golden [-j 1] invocations.  Direct major allocations are set-up
    (array growth), which the gate gives up. *)
