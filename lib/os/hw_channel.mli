(** Direct hardware-thread request/response channel.

    The common mechanism behind the paper's §2 use cases: a caller stores
    its request in shared memory, [start]s the callee's hardware thread,
    and parks on the response word with [monitor]/[mwait]; the callee
    processes the request, stores the response (which wakes the caller),
    and [stop]s itself.  No mode switch, no scheduler — the cost is two
    hardware-thread hand-offs.

    Every request carries a sequence number, and the server serves only
    sequences it has not seen, so a start is idempotent: re-ringing a
    server that already saw the request costs a load and a stop, never a
    second service.  The caller pays one store for the sequence word and
    the server one load for it.

    One channel = one server thread.  Concurrent callers serialize on a
    zero-cost software reservation (a one-token mailbox, handed over in
    FIFO order); systems that want concurrency create one channel per
    client (as the experiments do).

    The server can run in {e user} mode — this is how the untrusted
    hypervisor and sandboxed microkernel services get isolation without
    privilege: a user-mode server is given a private TDT that lets it
    stop itself and nothing else. *)

type t

val create :
  Switchless.Chip.t -> core:int -> server_ptid:int ->
  ?mode:Switchless.Ptid.mode -> ?vector:bool ->
  ?on_request:(Switchless.Isa.thread -> int64 -> unit) -> unit -> t
(** Install the server thread (born parked; the first {!call} starts it).
    [on_request server work] overrides the default request handler (which
    is [Isa.exec server work]); use it to model services that touch
    devices or fault. *)

val grant : t -> client:Switchless.Isa.thread -> vtid:int -> unit
(** Give [client] permission to start the server under [vtid] in its TDT
    (creating the table if the client has none).  Setup-time helper — no
    cycles charged. *)

val call :
  t -> client:Switchless.Isa.thread -> ?via:int -> work:int -> unit -> unit
(** Round trip: request [work], start the server ([via] the client's TDT
    vtid, or by raw ptid for supervisor clients), park until the response
    lands.  Must run inside the client's body. *)

(** {2 Failure-hardened calls} *)

type call_error = [ `Lock_timeout | `Response_timeout ]
(** [`Lock_timeout]: the channel reservation did not free up in time (a
    previous caller is wedged behind a faulted server).
    [`Response_timeout]: the request was issued but no response landed
    within any retry budget. *)

val pp_call_error : Format.formatter -> call_error -> unit

val call_with_deadline :
  t -> client:Switchless.Isa.thread -> ?via:int -> ?max_retries:int ->
  timeout:Sl_engine.Sim.Time.t -> work:int -> unit ->
  (unit, call_error) result
(** {!call} that survives a faulted substrate instead of parking forever.
    The reservation wait is bounded by [timeout] cycles; each response
    wait uses [mwait] with a deadline, retrying up to [max_retries]
    (default 3) times with exponentially doubling budgets, re-ringing the
    server's doorbell on each retry (idempotent thanks to the sequence
    word); each re-ring counts ["chan.retry"] in the caller's world
    ({!Sl_engine.Sim.count}).  Raises [Invalid_argument] when
    [timeout ≤ 0]. *)

val served : t -> int

val server_ptid : t -> int
