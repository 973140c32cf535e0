(** Rule (1): arm-before-park / arm-before-register.

    The monitor/mwait parking protocol is race-free only in one order:
    the monitor must be armed {e before} the thread parks and before the
    thread is published to any registry a third party can ring it
    through — a doorbell rung before MONITOR executes is architecturally
    lost (the boot-window lost-doorbell race found by test/dist's
    reference-model property).

    One flow walk per binding ({!Binding}), in definition order and in
    evaluation order within it, with the armed/taint state inherited by
    closures created after the fact.  What a closure does stays in the
    closure; what an [if] branch, a [match] or handler case or a loop
    body does (outside closures) counts after it: the rule orders arms
    against publishes and parks, and does not evaluate guards.  An arm
    cache's [if must_arm s then Isa.monitor ...] therefore counts as an
    arm, written directly or in a helper alike; a cache may skip only an
    arm that still holds.

    The walk's final state is the binding's summary, which a later call
    to the binding reads in place of its body: the parameters it arms
    (so a call to [Hw_channel.issue ~client] arms [client]), whether it
    runs a stepped wait ([Sim.wait], or a call to a binding that does),
    and whether it parks (below).  The members of a [let rec … and …]
    are summarized before they are checked.

    - [park-before-arm] — an [Isa.mwait]/[Isa.mwait_for] on a thread
      handle with no [Isa.monitor] arm (direct or through a summary)
      before it.
    - [register-before-arm] — a hand-out ([Mailbox.send], [Queue.push],
      [Queue.add], or a mutable-field publish) of a {e freshly
      constructed} worker (a record carrying a [Memory.addr] doorbell
      field) with no monitor arm before the hand-out.  Values that
      arrived through a mailbox/queue receive are not fresh: their
      sender owned the obligation, and the wakeup latch covers
      re-registration after first park.
    - [lock-arm-before-publish] — a waiter-list publish RMW
      ([Atomics.exchange]/[Atomics.fetch_add]/[Atomics.rmw] — an MCS
      tail swap or a ticket draw) with no monitor arm before it, in a
      binding that parks.  Once the RMW commits, a releaser may grant
      this waiter at any instant; if the grant lands in the
      publish-to-arm window the store is never latched and the park
      sleeps through its own wakeup.  A binding parks when its own body
      (not a closure in it) calls [Isa.mwait]/[Isa.mwait_for], or runs
      a stepped wait and arms a monitor: the wait's steps park on what
      it armed.  A publish with no arm before it is held until the
      binding's walk is over and reported only if the binding parks, so
      pure spin loops, arms with no wait and split join/wait helpers
      stay silent; one inside a closure is held the same way. *)

val check : Binding.t list -> Site.t list
(** The findings over a unit's bindings, in no particular order. *)
