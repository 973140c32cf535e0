module Sim = Sl_engine.Sim
module Memory = Switchless.Memory
module Params = Switchless.Params

type completion = { cmd_id : int; submitted_at : int; completed_at : int }

type t = {
  params : Params.t;
  memory : Memory.t;
  queue_depth : int;
  latency : Sl_util.Dist.t;
  rng : Sl_util.Rng.t;
  cq_tail_addr : Memory.addr;
  completions : completion Queue.t;
  mutable next_id : int;
  mutable in_flight : int;
  mutable completed : int;
  mutable stall_fault : (unit -> int option) option;
  mutable stalls : int;
  mutable stall_cycles_total : int;
}

type Sim.component += Nvme of t

let create _sim params memory ?(queue_depth = 64) ~latency ~rng () =
  if queue_depth <= 0 then invalid_arg "Nvme.create: queue_depth must be positive";
  let t =
    {
      params;
      memory;
      queue_depth;
      latency;
      rng;
      cq_tail_addr = Memory.alloc memory 1;
      completions = Queue.create ();
      next_id = 0;
      in_flight = 0;
      completed = 0;
      stall_fault = None;
      stalls = 0;
      stall_cycles_total = 0;
    }
  in
  Sim.announce (Nvme t);
  t

let set_stall_fault t f = t.stall_fault <- Some f
let stall_count t = t.stalls
let stall_cycles_total t = t.stall_cycles_total

let cq_tail_addr t = t.cq_tail_addr

let submit t =
  if t.in_flight >= t.queue_depth then invalid_arg "Nvme.submit: queue full";
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  t.in_flight <- t.in_flight + 1;
  let submitted_at = Sim.now () in
  (* Doorbell MMIO write. *)
  Sim.delay t.params.Params.nic_doorbell_cycles;
  let service = int_of_float (Sl_util.Dist.sample t.latency t.rng) in
  let service = if service < 1 then 1 else service in
  (* Fault injection, sampled at submission so the draw order is
     deterministic: a completion stall stretches this command's device
     latency (firmware hiccup, retried media op, deep power state). *)
  let stall =
    match t.stall_fault with
    | Some f -> (
      match f () with
      | Some extra when extra > 0 ->
        t.stalls <- t.stalls + 1;
        t.stall_cycles_total <- t.stall_cycles_total + extra;
        extra
      | Some _ | None -> 0)
    | None -> 0
  in
  let complete () =
    t.in_flight <- t.in_flight - 1;
    t.completed <- t.completed + 1;
    Queue.push { cmd_id = id; submitted_at; completed_at = Sim.now () } t.completions;
    Memory.write t.memory t.cq_tail_addr (Int64.of_int t.completed)
  in
  (* The device latency, then the completion DMA. *)
  Sim.after 0 (fun () ->
      Sim.after (service + stall) (fun () ->
          Sim.after t.params.Params.dma_write_cycles complete));
  id

let in_flight t = t.in_flight

let poll_completion t = Queue.take_opt t.completions

let completed t = t.completed
