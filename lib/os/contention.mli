(** Lock contention: hardware threads taking turns on one lock (§2, §4
    applied to locks; E-LOCK, [switchless-sim lock], the lock-scaling
    microbench and the explorer's parking-lock scenarios).

    The builder makes one chip (a monitor table far larger than any run
    arms, so lock behaviour is isolated from E9's capacity effects), one
    {!Sl_sync.Lock} and [threads] User-mode contenders, ptid [i + 1].
    Each contender loops acquire → section → release → gap until its
    quota is spent.  A caller passes only what differs. *)

type placement =
  | Hot  (** Every contender on core 0. *)
  | Rr  (** Contender [i] on core [i mod cores]. *)

type quota =
  | Shared of int
      (** [n] sections in total.  The claim is made under the lock, so
          every contender pays one final acquire that finds the quota
          spent: [acquires = n + threads]. *)
  | Each of int
      (** [n] sections per contender, checked before acquiring:
          [acquires = n * threads].  Progress survives a crash-restart
          of the contender's body. *)

type section =
  | Exec of int  (** Execute that many cycles. *)
  | Increment of int
      (** Load the builder's counter, execute [hold] cycles, store it
          back plus one: a lost update shows as a short counter. *)

type result = {
  elapsed : int;  (** Cycles when the world stopped. *)
  sections : int;  (** Critical sections run. *)
  counter : int;  (** The [Increment] counter's final value; 0 for [Exec]. *)
  stats : Sl_sync.Lock.stats;
  useful : float;  (** Cycles summed over every core. *)
  poll : float;
  overhead : float;
  restarts : int;  (** Crash-restarts of contender bodies. *)
  watchdog : Watchdog.t option;
}

val run :
  ?patience:int ->
  ?watchdog:bool ->
  ?horizon:int ->
  cores:int ->
  placement:placement ->
  threads:int ->
  quota:quota ->
  section:section ->
  gap:int ->
  Sl_sync.Lock.kind ->
  result
(** [patience] goes to {!Sl_sync.Lock.create}.  [watchdog] (default
    off) starts a {!Watchdog}, ptid [threads + 1] on the last core
    (period 8,000, stuck after 12,000 cycles), once every contender has
    booted; the last contender to finish stops it.  [horizon] bounds
    the run ([Sim.run ~until], which leaves [elapsed] at the horizon);
    by default the world runs until every contender is done.  [gap]
    cycles run after each section's release, none when it is 0.
    Raises [Invalid_argument] when [threads] or the quota's [n] is
    below 1. *)
