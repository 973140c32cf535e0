module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Sim = Sl_engine.Sim

type t = {
  chip : Chip.t;
  word : Memory.addr;
  armed : Sl_util.Dense.t;
      (* ptid -> the thread's crash count when it last armed [word]; -1
         until it first does *)
}

let create chip =
  { chip; word = Memory.alloc (Chip.memory chip) 1; armed = Sl_util.Dense.create () }

(* Same crash-aware arm cache as Lock: a crash-stop clears the hardware
   monitor table, so the cached arm is keyed by the crash count. *)
let ensure_armed th armed word =
  let ptid = Chip.ptid th and crashes = Chip.crash_count th in
  let at = Sl_util.Dense.get armed ptid in
  if at <> crashes then begin
    if at >= 0 then Sim.count "sync.rearm";
    Isa.monitor th word;
    Sl_util.Dense.set armed ptid crashes
  end

let wait t lock th =
  (* Arm and snapshot the epoch BEFORE releasing the lock: a broadcast
     that fires the instant after the release is then either visible in
     the snapshot comparison or latched by the armed monitor. *)
  ensure_armed th t.armed t.word;
  let epoch0 = Atomics.read t.chip th t.word in
  Lock.release lock th;
  while Int64.equal (Atomics.read t.chip th t.word) epoch0 do
    ignore (Isa.mwait th : Memory.addr)
  done;
  Lock.acquire lock th

let broadcast t th = ignore (Atomics.fetch_add t.chip th t.word 1L : int64)
