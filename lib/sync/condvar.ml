module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Sim = Sl_engine.Sim

type cslot = { mutable armed : bool; mutable armed_crashes : int }

type t = {
  chip : Chip.t;
  word : Memory.addr;
  slots : (int, cslot) Hashtbl.t;
}

let create chip =
  { chip; word = Memory.alloc (Chip.memory chip) 1; slots = Hashtbl.create 64 }

let slot_of t th =
  match Hashtbl.find t.slots (Chip.ptid th) with
  | s -> s
  | exception Not_found ->
    let s = { armed = false; armed_crashes = 0 } in
    Hashtbl.replace t.slots (Chip.ptid th) s;
    s

(* Same crash-aware arm cache as Lock: a crash-stop clears the hardware
   monitor table, so the cached bit is keyed by the crash count.  Thread
   and word come in as parameters (not dug out of records), which also
   lets the static protocol layer summarize this as an arming function
   of its first argument. *)
let ensure_armed th s word =
  let crashes = Chip.crash_count th in
  if (not s.armed) || s.armed_crashes <> crashes then begin
    if s.armed && s.armed_crashes <> crashes then Sim.count "sync.rearm";
    Isa.monitor th word;
    s.armed <- true;
    s.armed_crashes <- crashes
  end

let wait t lock th =
  let s = slot_of t th in
  (* Arm and snapshot the epoch BEFORE releasing the lock: a broadcast
     that fires the instant after the release is then either visible in
     the snapshot comparison or latched by the armed monitor. *)
  ensure_armed th s t.word;
  let epoch0 = Atomics.read t.chip th t.word in
  Lock.release lock th;
  while Int64.equal (Atomics.read t.chip th t.word) epoch0 do
    ignore (Isa.mwait th : Memory.addr)
  done;
  Lock.acquire lock th

let broadcast t th = ignore (Atomics.fetch_add t.chip th t.word 1L : int64)
