module Sim = Sl_engine.Sim
module Memory = Switchless.Memory
module Params = Switchless.Params

type packet = { pkt_id : int; flow : int; injected_at : int }

type queue = {
  ring_base : Memory.addr;
  tail_addr : Memory.addr;
  ring : packet option array;
  mutable head : int;  (* consumer position (absolute count) *)
  mutable tail : int;  (* producer position (absolute count) *)
  mutable drops : int;  (* ring-full drops steered at this queue *)
}

type faults = {
  dma_drop : queue:int -> bool;
  doorbell_drop : queue:int -> bool;
  doorbell_dup : queue:int -> bool;
}

type t = {
  sim : Sim.t;
  params : Params.t;
  memory : Memory.t;
  notify : Notify.t;
  queue_depth : int;
  rx : queue array;
  mutable next_id : int;
  mutable dropped : int;
  mutable faults : faults option;
  mutable dma_dropped : int;
  mutable doorbells_dropped : int;
  mutable doorbells_duplicated : int;
}

(* Lets the fault injector attach to every NIC built inside experiment
   runners, mirroring [Chip.add_creation_hook].  Domain-local, like all
   ambient creation hooks. *)
let creation_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_creation_hook f = Domain.DLS.set creation_hook (Some f)
let clear_creation_hook () = Domain.DLS.set creation_hook None

let create sim params memory ?(notify = Notify.Silent) ?(queues = 1) ~queue_depth () =
  if queue_depth <= 0 then invalid_arg "Nic.create: queue_depth must be positive";
  if queues <= 0 then invalid_arg "Nic.create: queues must be positive";
  let make_queue () =
    {
      ring_base = Memory.alloc memory queue_depth;
      tail_addr = Memory.alloc memory 1;
      ring = Array.make queue_depth None;
      head = 0;
      tail = 0;
      drops = 0;
    }
  in
  let t =
    {
      sim;
      params;
      memory;
      notify;
      queue_depth;
      rx = Array.init queues (fun _ -> make_queue ());
      next_id = 0;
      dropped = 0;
      faults = None;
      dma_dropped = 0;
      doorbells_dropped = 0;
      doorbells_duplicated = 0;
    }
  in
  (match Domain.DLS.get creation_hook with Some f -> f t | None -> ());
  t

let set_faults t f = t.faults <- Some f

let queue_count t = Array.length t.rx
let queue_tail_addr t i = t.rx.(i).tail_addr
let rx_tail_addr t = queue_tail_addr t 0

let inject ?flow t =
  let flow = match flow with Some f -> f | None -> t.next_id in
  let q_idx = flow mod Array.length t.rx in
  let q = t.rx.(q_idx) in
  if q.tail - q.head >= t.queue_depth then begin
    t.dropped <- t.dropped + 1;
    q.drops <- q.drops + 1
  end
  else begin
    let pkt = { pkt_id = t.next_id; flow; injected_at = Sim.now () } in
    t.next_id <- t.next_id + 1;
    (* DMA of the descriptor, then the tail-pointer doorbell write. *)
    Sim.delay t.params.Params.dma_write_cycles;
    let dma_lost =
      match t.faults with Some f -> f.dma_drop ~queue:q_idx | None -> false
    in
    if dma_lost then
      (* The descriptor write was lost in the fabric: no ring entry, no
         doorbell.  The packet is gone; only the counter remembers it. *)
      t.dma_dropped <- t.dma_dropped + 1
    else begin
      let slot = q.tail mod t.queue_depth in
      q.ring.(slot) <- Some pkt;
      Memory.write t.memory (q.ring_base + slot) (Int64.of_int pkt.pkt_id);
      q.tail <- q.tail + 1;
      let bell_lost =
        match t.faults with
        | Some f -> f.doorbell_drop ~queue:q_idx
        | None -> false
      in
      if bell_lost then
        (* Descriptor landed but the tail-pointer update did not: the
           classic lost doorbell.  The data is pollable, yet nothing
           wakes a parked monitor until a later packet's doorbell. *)
        t.doorbells_dropped <- t.doorbells_dropped + 1
      else begin
        Memory.write t.memory q.tail_addr (Int64.of_int q.tail);
        (match t.faults with
        | Some f when f.doorbell_dup ~queue:q_idx ->
          (* A replayed doorbell: same tail value written twice.  The
             second write latches a pending trigger, producing a spurious
             immediate mwait return downstream. *)
          t.doorbells_duplicated <- t.doorbells_duplicated + 1;
          Memory.write t.memory q.tail_addr (Int64.of_int q.tail)
        | Some _ | None -> ());
        Notify.fire t.sim t.params t.memory t.notify
      end
    end
  end

let poll_queue t i =
  let q = t.rx.(i) in
  if q.head >= q.tail then None
  else begin
    let slot = q.head mod t.queue_depth in
    let pkt = q.ring.(slot) in
    q.ring.(slot) <- None;
    q.head <- q.head + 1;
    pkt
  end

let poll t = poll_queue t 0

let pending_queue t i = t.rx.(i).tail - t.rx.(i).head

let pending t =
  Array.fold_left (fun acc q -> acc + (q.tail - q.head)) 0 t.rx

let delivered t = Array.fold_left (fun acc q -> acc + q.tail) 0 t.rx

let dropped t = t.dropped
let dropped_queue t i = t.rx.(i).drops
let dma_dropped t = t.dma_dropped
let doorbells_dropped t = t.doorbells_dropped
let doorbells_duplicated t = t.doorbells_duplicated
