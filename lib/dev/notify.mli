(** How a device announces an event, beyond its inherent DMA writes.

    Every device model already writes its descriptor ring and tail pointer
    through {!Switchless.Memory.write} — in the proposed hardware that
    alone wakes monitoring threads.  On top of that a device can be
    configured with a legacy notification: *)

type t =
  | Silent
      (** No extra signal: the polled design, or the mwait design (the
          tail-pointer DMA write is itself the wakeup). *)
  | Msix of Switchless.Memory.addr
      (** Interrupt translated to a memory write (PCIe MSI-X style, §4):
          the device additionally writes this address after the
          translation delay. *)
  | Irq_line of (unit -> unit)
      (** Legacy interrupt: invoke the interrupt controller callback (the
          baseline kernel wires this to IDT dispatch). *)

val fire :
  Sl_engine.Sim.t -> Switchless.Params.t -> Switchless.Memory.t -> t -> unit
(** Deliver the notification of a device event happening now.  Never
    blocks, so a device's own event can call it as well as a process:
    [Irq_line] calls its callback now, and [Msix] schedules its vector
    write [msix_translation_cycles] later, in an event of its own.  The
    caller goes on at once; an MSI-X write never delays the device that
    fired it. *)
