module Sim = Sl_engine.Sim

type policy = Fifo | Lifo | Locality

(* Hardware queue-pop + doorbell latency of one dispatch. *)
let dispatch_cycles = 8

(* A worker, linked into its unit's parked queue while it waits: a ring
   through [newer] and [older] around the unit's sentinel, so that
   parking a worker and taking one from either end or from the middle
   allocate nothing.  An unlinked worker links to itself. *)
type worker = {
  entry : State_store.entry;  (* the thread's context, for [Locality] *)
  doorbell : Memory.addr;
  mutable slot : int64;  (* payload for the next wake *)
  mutable newer : worker;
  mutable older : worker;
}

type t = {
  chip : Chip.t;
  core : int;
  policy : policy;
  pending : int64 Queue.t;
  parked : worker;  (* sentinel: [older] is the newest worker, [newer] the oldest *)
  mutable dispatched : int;
}

let unlinked ~entry ~doorbell =
  let rec w = { entry; doorbell; slot = 0L; newer = w; older = w } in
  w

let create chip ~core ?(policy = Lifo) () =
  {
    chip;
    core;
    policy;
    pending = Queue.create ();
    parked = unlinked ~entry:(State_store.placeholder ()) ~doorbell:(-1);
    dispatched = 0;
  }

let unlink w =
  w.newer.older <- w.older;
  w.older.newer <- w.newer;
  w.newer <- w;
  w.older <- w

(* A worker parks at the newest end.  One still linked (woken without a
   dispatch, by a spurious wake) moves there. *)
let park t w =
  unlink w;
  let newest = t.parked.older in
  w.older <- newest;
  w.newer <- t.parked;
  newest.newer <- w;
  t.parked.older <- w

(* From [w] towards the oldest end, the first worker whose context is
   register-file-resident, else the newest. *)
let rec resident t store w =
  if w == t.parked then t.parked.older
  else if State_store.tier_of store w.entry = State_store.Register_file then w
  else resident t store w.older

(* The worker the policy selects, or the sentinel when none is parked. *)
let pick t =
  match t.policy with
  | Lifo -> t.parked.older
  | Fifo -> t.parked.newer
  | Locality -> resident t (Chip.state_store t.chip t.core) t.parked.older

let ring t worker payload =
  worker.slot <- payload;
  t.dispatched <- t.dispatched + 1;
  let memory = Chip.memory t.chip in
  let at = Sim.time (Chip.sim t.chip) + dispatch_cycles in
  Sim.schedule (Chip.sim t.chip) ~at (fun () ->
      Memory.write memory worker.doorbell 1L)

let submit t payload =
  let worker = pick t in
  if worker == t.parked then Queue.push payload t.pending
  else begin
    unlink worker;
    ring t worker payload
  end

let worker_loop t th handle =
  let worker =
    unlinked ~entry:(Chip.store_entry th) ~doorbell:(Memory.alloc (Chip.memory t.chip) 1)
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
      park t worker;
      let _ = Isa.mwait th in
      handle worker.slot;
      loop ()
  in
  loop ()

let queued t = Queue.length t.pending
let dispatched t = t.dispatched
