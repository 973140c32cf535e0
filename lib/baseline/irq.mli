(** Legacy interrupt delivery: IDT dispatch, IRQ context, IPIs.

    Each core reserves an interrupt context.  Raising an IRQ on a core
    enqueues a handler; the IRQ context charges the architectural entry
    cost, runs the handler body (which consumes cycles via the [exec]
    function it receives), then charges the exit cost.  While active, the
    IRQ context competes for the core's pipeline like an extra hardware
    context — stealing capacity from application contexts, exactly the
    disruption §2 wants to remove.  Handlers on one core serialize (hard
    IRQ context). *)

type t

val create : Sl_engine.Sim.t -> Switchless.Params.t -> cores:Switchless.Smt_core.t array -> t

val raise_irq : t -> core:int -> handler:(exec:(int -> unit) -> unit) -> unit
(** Deliver an interrupt to [core] at the current time.  Safe to call from
    any process or callback; the handler runs asynchronously in IRQ
    context. *)

val send_ipi : t -> core:int -> handler:(exec:(int -> unit) -> unit) -> unit
(** Cross-core interrupt: like {!raise_irq} after the IPI delivery
    latency.  Must be called from a process. *)

val irq_count : t -> int

val ipi_count : t -> int
(** IPIs sent, including ones later lost to an injected drop. *)

(** {2 Fault injection} *)

val set_ipi_drop_fault : t -> (unit -> bool) -> unit
(** Install a drop predicate sampled once per {!send_ipi}, after the send
    latency: [true] loses the IPI in the interconnect — the target core
    never runs the handler.  Installed by [Sl_fault.Fault]; at most one. *)

val dropped_ipi_count : t -> int

type Sl_engine.Sim.component += Irq of t
(** Announced at the end of every {!create} (see [Sim.observe]). *)
