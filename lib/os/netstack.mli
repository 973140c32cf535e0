(** A miniature reliable transport on the switchless stack (the
    "network stack service" of §2, TAS/Snap's job).

    Two hosts exchange packets over lossy, delayed links modelled as NIC
    RX rings.  The sender is a single hardware thread that monitors {e
    two} addresses at once — its ACK ring's tail and the APIC timer's
    tick counter — so both "packet arrived" and "retransmission timeout"
    are plain monitor wakeups: the whole protocol runs with no interrupt,
    no polling and no software timer wheel (§3.1: "a hardware thread can
    monitor multiple memory locations").

    The protocol is stop-and-wait with cumulative ACKs — deliberately
    minimal; the point is the event plumbing, not TCP. *)

type stats = {
  delivered : int;  (** In-order segments accepted by the receiver. *)
  retransmissions : int;
  duplicates : int;  (** Segments the receiver discarded as already seen. *)
  acks_sent : int;
  elapsed_cycles : Sl_engine.Sim.Time.t;
  goodput_per_kcycle : float;
}

val run :
  ?seed:int64 -> ?loss:float -> ?link_delay:Sl_engine.Sim.Time.t ->
  params:Switchless.Params.t -> segments:int -> unit -> stats
(** Transfer [segments] segments from host A (core 0) to host B (core 1)
    over links with the given one-way [link_delay] (default 2000 cycles)
    and independent drop probability [loss] (default 0) in both
    directions.  The retransmission timeout is 6 × [link_delay].  Runs to completion and returns the transcript
    statistics; deterministic in [seed]. *)
