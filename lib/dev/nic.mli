(** Network interface model: RX descriptor rings + DMA + tail doorbells.

    On packet arrival the device DMAs a descriptor into an in-memory ring,
    then advances that ring's in-memory tail pointer.  Because both are
    ordinary {!Switchless.Memory.write}s, a hardware thread monitoring the
    ring's tail wakes exactly as §2 "Fast I/O without Inefficient Polling"
    describes — and a polling thread can instead read the tail, and a
    legacy configuration can raise an interrupt.

    The device supports multiple RX queues (RSS-style): packets are
    steered to a queue by flow hash, so one hardware thread can park on
    each queue — the paper's §4 suggestion of offloading dispatch to the
    NIC.  The single-queue API ({!rx_tail_addr}, {!poll}) operates on
    queue 0 and is what most callers use. *)

type packet = {
  pkt_id : int;
  flow : int;  (** Flow label used for queue steering. *)
  injected_at : Sl_engine.Sim.Time.t;  (** Cycle of arrival at the device. *)
}

type t

val create :
  Sl_engine.Sim.t -> Switchless.Params.t -> Switchless.Memory.t ->
  ?notify:Notify.t -> ?queues:int -> queue_depth:int -> unit -> t
(** [queues] (default 1) RX queues, each of [queue_depth] descriptors. *)

val queue_count : t -> int

val rx_tail_addr : t -> Switchless.Memory.addr
(** Queue 0's tail word — the monitor target for single-queue setups. *)

val queue_tail_addr : t -> int -> Switchless.Memory.addr

val arrive : ?flow:int -> t -> unit
(** One packet with the given flow label (default: consecutive ids, i.e.
    round-robin across queues) arrives now.  The device admits it at
    once: it steers the packet to a queue and, when that ring is full,
    drops it (counted in {!dropped}); otherwise it stamps the next
    [pkt_id] and [injected_at] = now.  The descriptor and the tail
    doorbell land [dma_write_cycles] later, in an event of the device's
    own, followed by the notification.  Every packet's DMA takes the
    same time, so packets land in the order they were admitted, across
    queues.  The ring-full check counts unconsumed descriptors and those
    whose DMA is still in flight, so a ring never holds more than
    [queue_depth].  Never blocks: callable from a process or a
    {!Sl_engine.Sim.schedule} callback. *)

val inject : ?flow:int -> t -> unit
(** {!arrive}, then, for an admitted packet, wait out the DMA: the
    calling process resumes just after its descriptor and doorbell
    landed.  Must be called from a process. *)

val poll : t -> packet option
(** Take the next descriptor from queue 0, if any. *)

val poll_queue : t -> int -> packet option

val pending : t -> int
(** Descriptors delivered but unconsumed, across all queues. *)

val pending_queue : t -> int -> int
val delivered : t -> int

val dropped : t -> int
(** Ring-full drops across all queues. *)

val dropped_queue : t -> int -> int
(** Ring-full drops whose packet was steered at the given queue;
    queue-wise these sum to {!dropped}. *)

(** {2 Fault injection}

    Installed per NIC by [Sl_fault.Fault].  Each predicate is sampled once
    per admitted packet at the relevant point of its landing. *)

type faults = {
  dma_drop : queue:int -> bool;
      (** Descriptor DMA lost in the fabric: no ring entry, no doorbell —
          the packet vanishes (counted in {!dma_dropped}). *)
  doorbell_drop : queue:int -> bool;
      (** Descriptor lands but the tail-pointer write is lost: data is
          pollable yet no monitor wakes until the next doorbell. *)
  doorbell_dup : queue:int -> bool;
      (** The tail write is replayed (same value twice), latching a
          spurious pending trigger for the monitoring thread. *)
}

val set_faults : t -> faults -> unit

val dma_dropped : t -> int
(** Packets lost to an injected descriptor-DMA drop (never counted in
    {!delivered} or {!dropped}). *)

val doorbells_dropped : t -> int
val doorbells_duplicated : t -> int

val set_creation_hook : (t -> unit) -> unit
(** Global hook invoked on every {!create}, so the fault injector can
    attach to NICs built deep inside experiment runners.  At most one. *)

val clear_creation_hook : unit -> unit
