module Chip = Switchless.Chip
module Memory = Switchless.Memory
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

(* Each access is its issue, an exec of the calling thread, then its
   commit, on [Memory] alone.  The issues are also written as
   instruction waits ([read_op], [poll_op], [rmw_op]) for a stepped wait
   to issue.  Each passes a constant [~kind]: a variable passed on to
   [Chip.exec]'s optional argument would allocate its [Some] on every
   read. *)
let read_op th = Chip.exec_op th ~kind:Smt_core.Overhead 1
let poll_op th = Chip.exec_op th ~kind:Smt_core.Poll 1
let rmw_op chip th = Chip.exec_op th ~kind:Smt_core.Overhead (Chip.params chip).Params.cas_cycles

let read chip th addr =
  Chip.exec th ~kind:Smt_core.Overhead 1;
  Memory.read (Chip.memory chip) addr

let poll chip th addr =
  Chip.exec th ~kind:Smt_core.Poll 1;
  Memory.read (Chip.memory chip) addr

let write chip th addr v =
  Chip.exec th ~kind:Smt_core.Overhead 1;
  Memory.write (Chip.memory chip) addr v

(* Each RMW pays its issue latency up front; the read and write then
   commit in the same event callback, with no simulated time in
   between — that instant is the linearization point.  Each is written
   out, with no closure for its update: [exchange] allocates nothing and
   [fetch_add] only its sum's box, which [Memory]'s [int64 array]
   needs. *)
let commit_cas chip addr ~expect ~desired =
  let m = Chip.memory chip in
  let v = Memory.read m addr in
  if Int64.equal v expect then begin
    Memory.write m addr desired;
    true
  end
  else false

let cas chip th addr ~expect ~desired =
  Chip.exec th ~kind:Smt_core.Overhead (Chip.params chip).Params.cas_cycles;
  commit_cas chip addr ~expect ~desired

let exchange chip th addr v =
  Chip.exec th ~kind:Smt_core.Overhead (Chip.params chip).Params.cas_cycles;
  let m = Chip.memory chip in
  let old = Memory.read m addr in
  Memory.write m addr v;
  old

let fetch_add chip th addr d =
  Chip.exec th ~kind:Smt_core.Overhead (Chip.params chip).Params.cas_cycles;
  let m = Chip.memory chip in
  let old = Memory.read m addr in
  Memory.write m addr (Int64.add old d);
  old
