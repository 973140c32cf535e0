module Chip = Switchless.Chip
module Memory = Switchless.Memory
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

(* Each passes a constant [~kind]: a variable passed on to [Chip.exec]'s
   optional argument would allocate its [Some] on every read. *)
let read chip th addr =
  Chip.exec th ~kind:Smt_core.Overhead 1;
  Memory.read (Chip.memory chip) addr

let poll chip th addr =
  Chip.exec th ~kind:Smt_core.Poll 1;
  Memory.read (Chip.memory chip) addr

let write chip th addr v =
  Chip.exec th ~kind:Smt_core.Overhead 1;
  Memory.write (Chip.memory chip) addr v

(* Pay the RMW issue latency up front; the read and write then commit in
   the same event callback, with no simulated time in between — that
   instant is the linearization point. *)
let rmw chip th addr f =
  Chip.exec th ~kind:Smt_core.Overhead (Chip.params chip).Params.cas_cycles;
  let m = Chip.memory chip in
  let old = Memory.read m addr in
  Memory.write m addr (f old);
  old

let cas chip th addr ~expect ~desired =
  Chip.exec th ~kind:Smt_core.Overhead (Chip.params chip).Params.cas_cycles;
  let m = Chip.memory chip in
  let v = Memory.read m addr in
  if Int64.equal v expect then begin
    Memory.write m addr desired;
    true
  end
  else false

let exchange chip th addr v = rmw chip th addr (fun _ -> v)
let fetch_add chip th addr d = rmw chip th addr (fun old -> Int64.add old d)
