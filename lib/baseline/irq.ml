module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

type t = {
  params : Params.t;
  queues : (exec:(int -> unit) -> unit) Mailbox.t array;  (* handlers, one queue per core *)
  mutable irqs : int;
  mutable ipis : int;
  mutable ipi_drop : (unit -> bool) option;
  mutable dropped_ipis : int;
}

type Sim.component += Irq of t

(* The IRQ context's ptid on each core; chosen outside Swsched's range. *)
let irq_ptid core_id = (core_id * 1024) + 999

(* A heavy weight so the IRQ context is never throttled below a full
   pipeline slot while application contexts share the rest. *)
let irq_weight = 64.0

let create sim params ~cores =
  let t =
    {
      params;
      queues = Array.map (fun _ -> Mailbox.create ()) cores;
      irqs = 0;
      ipis = 0;
      ipi_drop = None;
      dropped_ipis = 0;
    }
  in
  Array.iteri
    (fun core_id core ->
      let slot = Smt_core.add_slot core ~ptid:(irq_ptid core_id) in
      let queue = t.queues.(core_id) in
      (* The IRQ context parks between interrupts by design. *)
      Sim.spawn ~name:(Printf.sprintf "irq-core-%d" core_id) ~daemon:true sim
        (fun () ->
          let exec cycles =
            Smt_core.execute core ~slot ~kind:Smt_core.Overhead cycles
          in
          let rec serve () =
            let handler = Mailbox.recv queue in
            Smt_core.set_runnable core ~slot ~weight:irq_weight true;
            exec params.Params.interrupt_entry_cycles;
            handler ~exec;
            exec params.Params.interrupt_exit_cycles;
            Smt_core.set_runnable core ~slot ~weight:irq_weight false;
            serve ()
          in
          serve ()))
    cores;
  Sim.announce (Irq t);
  t

let set_ipi_drop_fault t f = t.ipi_drop <- Some f

let raise_irq t ~core ~handler =
  t.irqs <- t.irqs + 1;
  Mailbox.send t.queues.(core) handler

let send_ipi t ~core ~handler =
  t.ipis <- t.ipis + 1;
  Sim.delay t.params.Params.ipi_cycles;
  (* Fault injection: the IPI message is lost in the interconnect after
     the send cost was paid — the target core never runs the handler. *)
  let lost = match t.ipi_drop with Some f -> f () | None -> false in
  if lost then t.dropped_ipis <- t.dropped_ipis + 1
  else begin
    t.irqs <- t.irqs + 1;
    Mailbox.send t.queues.(core) handler
  end

let irq_count t = t.irqs
let ipi_count t = t.ipis
let dropped_ipi_count t = t.dropped_ipis
