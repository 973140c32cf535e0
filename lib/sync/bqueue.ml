module Chip = Switchless.Chip
module Memory = Switchless.Memory

type t = {
  chip : Chip.t;
  lk : Lock.t;
  not_full : Condvar.t;
  not_empty : Condvar.t;
  ring : Memory.addr;
  capacity : int;
  mutable head : int;
  mutable tail : int;
  mutable produced : int;
  mutable consumed : int;
}

let create chip ~capacity =
  if capacity <= 0 then invalid_arg "Sl_sync.Bqueue.create: capacity must be positive";
  {
    chip;
    lk = Lock.create chip Lock.Park_mwait;
    not_full = Condvar.create chip;
    not_empty = Condvar.create chip;
    ring = Memory.alloc (Chip.memory chip) capacity;
    capacity;
    head = 0;
    tail = 0;
    produced = 0;
    consumed = 0;
  }

let lock t = t.lk
let length t = t.produced - t.consumed
let produced t = t.produced
let consumed t = t.consumed

let put t th v =
  Lock.acquire t.lk th;
  while length t = t.capacity do
    Condvar.wait t.not_full t.lk th
  done;
  Atomics.write t.chip th (t.ring + t.tail) v;
  t.tail <- (t.tail + 1) mod t.capacity;
  t.produced <- t.produced + 1;
  (* Broadcast while holding the lock: the woken getters re-check the
     predicate under the lock, so herd order does not matter. *)
  Condvar.broadcast t.not_empty th;
  Lock.release t.lk th

let get t th =
  Lock.acquire t.lk th;
  while length t = 0 do
    Condvar.wait t.not_empty t.lk th
  done;
  let v = Atomics.read t.chip th (t.ring + t.head) in
  t.head <- (t.head + 1) mod t.capacity;
  t.consumed <- t.consumed + 1;
  Condvar.broadcast t.not_full th;
  Lock.release t.lk th;
  v
