(** Closed-loop request generation.

    A fixed population of clients, each cycling think → submit → wait for
    the response.  The offered rate self-throttles: a saturated server
    slows the clients down instead of building an unbounded queue, which
    is precisely why closed-loop results {e hide} queueing collapse and
    open-loop ones ({!Openloop}) expose it — E16 runs both on the same
    serving designs to demonstrate the difference, and the chaos suite
    uses the per-request [?timeout] to keep clients live when injected
    faults eat a request entirely. *)

type t
(** Shared progress state for one client population. *)

val start :
  ?timeout:Sl_engine.Sim.Time.t ->
  ?slo:int ->
  Sl_engine.Sim.t -> Sl_util.Rng.t -> clients:int -> think:Sl_util.Dist.t ->
  service:Sl_util.Dist.t -> count:int ->
  submit:(Openloop.request -> complete:(unit -> unit) -> unit) -> t
(** [start sim rng ~clients ~think ~service ~count ~submit] spawns
    [clients] client processes that collectively issue [count] requests
    (a shared ticket counter; each request numbered in issue order).  Per
    request a client draws a think gap and a service demand from its own
    {!Sl_util.Rng.split} stream (clamped to ≥ 0), delays the think time,
    then calls [submit req ~complete] and blocks until the serving side
    invokes [complete] — or for at most [timeout] cycles when given, after
    which the request is counted {!timed_out} and the client moves on (a
    late [complete] is then a no-op: it never completes a later request
    of the client, not even one issued at the timeout's own tick).  The
    client parks on a wait queue of its own, so a request costs only its
    record and its [complete] closure.  Sojourns of completed requests are
    recorded against [slo] (default: effectively no SLO). *)

val issued : t -> int
val completed : t -> int
val timed_out : t -> int

val in_flight : t -> int
(** Requests submitted but neither completed nor timed out yet; [0] after
    a clean drain. *)

val latency : t -> Latency.t
(** Sojourn recorder over completed requests (submit → complete). *)
