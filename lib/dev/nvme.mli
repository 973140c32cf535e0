(** NVMe-style storage device: submission → latency → completion DMA.

    Commands complete after a configurable device latency (fixed or
    sampled), writing a completion entry and bumping the in-memory
    completion-queue tail — again an ordinary memory write, so the
    storage thread of a switchless kernel just monitors {!cq_tail_addr}. *)

type completion = {
  cmd_id : int;
  submitted_at : Sl_engine.Sim.Time.t;
  completed_at : Sl_engine.Sim.Time.t;
}

type t

val create :
  Sl_engine.Sim.t -> Switchless.Params.t -> Switchless.Memory.t ->
  ?queue_depth:int ->
  latency:Sl_util.Dist.t -> rng:Sl_util.Rng.t -> unit -> t

val cq_tail_addr : t -> Switchless.Memory.addr

val submit : t -> int
(** Issue one command; returns its id.  Must be called from a process
    (pays the doorbell write).  The completion arrives asynchronously
    after the device latency.  Raises [Invalid_argument] when the queue
    is full. *)

val in_flight : t -> int

val poll_completion : t -> completion option

val completed : t -> int

(** {2 Fault injection} *)

val set_stall_fault : t -> (unit -> int option) -> unit
(** Install a completion-stall sampler, consulted once per {!submit}:
    [Some extra] stretches that command's device latency by [extra]
    cycles (a firmware hiccup or retried media operation).  Installed by
    [Sl_fault.Fault]; at most one. *)

val stall_count : t -> int
val stall_cycles_total : t -> int

type Sl_engine.Sim.component += Nvme of t
(** Announced at the end of every {!create} (see [Sim.observe]). *)
