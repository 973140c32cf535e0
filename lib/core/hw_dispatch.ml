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
  bell : unit -> unit;  (* the doorbell event: rings the address its tag names *)
}

let create chip ~core ?(policy = Lifo) () =
  let sim = Chip.sim chip and memory = Chip.memory chip in
  let entry = State_store.placeholder () in
  let rec parked = { entry; doorbell = -1; slot = 0L; newer = parked; older = parked } in
  {
    chip;
    core;
    policy;
    pending = Queue.create ();
    parked;
    dispatched = 0;
    bell = (fun () -> Memory.write memory (Sim.event_tag sim) 1L);
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
  let sim = Chip.sim t.chip in
  Sim.schedule_tagged sim ~at:(Sim.time sim + dispatch_cycles) ~tag:worker.doorbell t.bell

let submit t payload =
  let worker = pick t in
  if worker == t.parked then Queue.push payload t.pending
  else begin
    unlink worker;
    ring t worker payload
  end

let worker_loop t th handle =
  (* The worker borrows the sentinel's links until it links to itself,
     as an unlinked worker does, before its first park: a self-linked
     [let rec] would build it twice.  Nothing else sees it until then. *)
  let worker =
    {
      entry = Chip.store_entry th;
      doorbell = Memory.alloc (Chip.memory t.chip) 1;
      slot = 0L;
      newer = t.parked;
      older = t.parked;
    }
  in
  Isa.monitor th worker.doorbell;
  worker.newer <- worker;
  worker.older <- worker;
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
      (* Only [submit] unlinks a parked worker, so one still linked was
         woken with nothing dispatched (a spurious wake, a watchdog
         nudge): it parks again at once, without the queue probe.  The
         probe can yield, and a [submit] in that yield would take the
         still-linked worker only for the empty probe to park it again
         with the item unseen. *)
      park t worker;
      while
        ignore (Isa.mwait th : Memory.addr);
        worker.newer != worker
      do
        park t worker
      done;
      handle worker.slot;
      loop ()
  in
  loop ()

let queued t = Queue.length t.pending
let dispatched t = t.dispatched
