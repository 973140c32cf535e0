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
  mutable in_flight : int;  (* admitted, DMA not yet landed *)
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
  (* Admitted packets whose DMA is in flight: ids [landed, next_id),
     packet [id] at [flight.(id land (Array.length flight - 1))]. *)
  mutable flight : packet array;
  mutable landed : int;
  mutable land_next : unit -> unit;  (* the landing event, set once at [create] *)
}

type Sim.component += Nic of t

(* Kept for perfbench/obs.ml until it observes [Nic] itself. *)
let set_creation_hook f =
  Sim.observe ~key:"nic.creation_hook" (function Nic t -> f t | _ -> ())

let clear_creation_hook () = Sim.unobserve ~key:"nic.creation_hook"

let no_packet = { pkt_id = -1; flow = 0; injected_at = 0 }

(* The descriptor DMA, then the tail-pointer doorbell write, of the
   oldest packet in flight.  Every packet waits the same
   [dma_write_cycles] and each admission pushes one landing event, so the
   landings come out in admission order and the k-th pops the k-th
   packet admitted. *)
let land_oldest t =
  let i = t.landed land (Array.length t.flight - 1) in
  let pkt = t.flight.(i) in
  t.flight.(i) <- no_packet;
  t.landed <- t.landed + 1;
  let q_idx = pkt.flow mod Array.length t.rx in
  let q = t.rx.(q_idx) in
  q.in_flight <- q.in_flight - 1;
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
      in_flight = 0;
      drops = 0;
    }
  in
  let rx = Array.init queues (fun _ -> make_queue ()) in
  let t =
    {
      sim;
      params;
      memory;
      notify;
      queue_depth;
      rx;
      next_id = 0;
      dropped = 0;
      faults = None;
      dma_dropped = 0;
      doorbells_dropped = 0;
      doorbells_duplicated = 0;
      flight = Array.make 16 no_packet;
      landed = 0;
      land_next = ignore;
    }
  in
  (* Set once the record exists: a [let rec] would build it twice. *)
  t.land_next <- (fun () -> land_oldest t);
  Sim.announce (Nic t);
  t

let set_faults t f = t.faults <- Some f

let queue_count t = Array.length t.rx
let queue_tail_addr t i = t.rx.(i).tail_addr
let rx_tail_addr t = queue_tail_addr t 0

(* Put the packet with the next id in flight, doubling the buffer when
   it is full.  Its length stays a power of two, so ids wrap with a
   mask. *)
let put_in_flight t pkt =
  let cap = Array.length t.flight in
  if t.next_id - t.landed = cap then begin
    let grown = Array.make (2 * cap) no_packet in
    for id = t.landed to t.next_id - 1 do
      grown.(id land ((2 * cap) - 1)) <- t.flight.(id land (cap - 1))
    done;
    t.flight <- grown
  end;
  t.flight.(t.next_id land (Array.length t.flight - 1)) <- pkt

(* Steer, count a ring-full drop, or stamp the packet and put its DMA in
   flight.  A descriptor in flight holds its ring slot already.  True when
   admitted. *)
let admit ?flow t =
  let flow = match flow with Some f -> f | None -> t.next_id in
  let q = t.rx.(flow mod Array.length t.rx) in
  if q.tail - q.head + q.in_flight >= t.queue_depth then begin
    t.dropped <- t.dropped + 1;
    q.drops <- q.drops + 1;
    false
  end
  else begin
    put_in_flight t { pkt_id = t.next_id; flow; injected_at = Sim.time t.sim };
    q.in_flight <- q.in_flight + 1;
    t.next_id <- t.next_id + 1;
    Sim.schedule t.sim ~at:(Sim.time t.sim + t.params.Params.dma_write_cycles) t.land_next;
    true
  end

let arrive ?flow t = ignore (admit ?flow t : bool)

let inject ?flow t = if admit ?flow t then Sim.delay t.params.Params.dma_write_cycles

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
