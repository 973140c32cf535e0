module Sim = Sl_engine.Sim

type policy = Fifo | Lifo | Locality

(* Hardware queue-pop + doorbell latency of one dispatch. *)
let dispatch_cycles = 8

type worker = {
  thread : Chip.thread;
  doorbell : Memory.addr;
  mutable slot : int64;  (* payload for the next wake *)
}

type t = {
  chip : Chip.t;
  core : int;
  policy : policy;
  pending : int64 Queue.t;
  mutable parked : worker list;  (* head = most recently parked *)
  mutable dispatched : int;
}

let create chip ~core ?(policy = Lifo) () =
  {
    chip;
    core;
    policy;
    pending = Queue.create ();
    parked = [];
    dispatched = 0;
  }

(* Remove and return the worker the policy selects; [parked] is LIFO
   ordered. *)
let pick t =
  match t.parked with
  | [] -> None
  | lifo_choice :: rest -> (
    match t.policy with
    | Lifo -> Some (lifo_choice, rest)
    | Fifo ->
      let rec split_last acc = function
        | [ last ] -> (last, List.rev acc)
        | x :: tl -> split_last (x :: acc) tl
        | [] -> assert false
      in
      Some (split_last [] t.parked)
    | Locality -> (
      let store = Chip.state_store t.chip t.core in
      let resident w =
        State_store.tier_of store (Chip.store_entry w.thread)
        = State_store.Register_file
      in
      match List.find_opt resident t.parked with
      | Some w -> Some (w, List.filter (fun x -> x != w) t.parked)
      | None -> Some (lifo_choice, rest)))

let ring t worker payload =
  worker.slot <- payload;
  t.dispatched <- t.dispatched + 1;
  let memory = Chip.memory t.chip in
  let at = Sim.time (Chip.sim t.chip) + dispatch_cycles in
  Sim.schedule (Chip.sim t.chip) ~at (fun () ->
      Memory.write memory worker.doorbell 1L)

let submit t payload =
  match pick t with
  | Some (worker, rest) ->
    t.parked <- rest;
    ring t worker payload
  | None -> Queue.push payload t.pending

let worker_loop t th handle =
  let worker =
    { thread = th; doorbell = Memory.alloc (Chip.memory t.chip) 1; slot = 0L }
  in
  Isa.monitor th worker.doorbell;
  let rec loop () =
    (* Pull directly from the hardware queue when work is waiting — no
       park, no wake cost.  One cycle for the queue probe. *)
    match
      Isa.exec th ~kind:Smt_core.Overhead 1;
      Queue.take_opt t.pending
    with
    | Some payload ->
      t.dispatched <- t.dispatched + 1;
      handle payload;
      loop ()
    | None ->
      t.parked <- worker :: t.parked;
      let _ = Isa.mwait th in
      handle worker.slot;
      loop ()
  in
  loop ()

let queued t = Queue.length t.pending
let dispatched t = t.dispatched
