(* Seeded violations for the protocol rule over stepped waits.  A lock
   waiter that waits in steps ([Sim.wait]) parks from inside its steps,
   where the body never calls [Isa.mwait]; what makes the body a parker
   is that it runs the wait and arms a monitor.  [mcs_join_late_arm] is
   Lock.mcs_acquire with its arm moved below the tail swap.  The stubs
   mirror the real module names so resolved-path suffix matching applies
   exactly as it does over lib/. *)

module Memory = struct
  type addr = int
end

module Isa = struct
  type thread = int

  let monitor (_ : thread) (_ : Memory.addr) = ()
end

module Sim = struct
  let wait (_ : unit -> unit) = ()
end

module Atomics = struct
  let exchange (_ : Isa.thread) (_ : Memory.addr) (_ : int64) = 0L
end

type slot = {
  th : Isa.thread;
  grant : Memory.addr;
  mutable armed : bool;
  step : unit -> unit;
}

let must_arm s =
  if s.armed then false
  else begin
    s.armed <- true;
    true
  end

(* The arm cache's helper: a call arms its [th]. *)
let arm_grant th s = if must_arm s then Isa.monitor th s.grant

(* Runs the stepped wait. *)
let wait s = Sim.wait s.step

(* lock-arm-before-publish (seeded): both through module-local helpers. *)
let mcs_join_late_arm s tail =
  let _pred = Atomics.exchange s.th tail 1L in
  arm_grant s.th s;
  wait s

(* lock-arm-before-publish (seeded): both direct, the arm under the arm
   cache's [if]. *)
let mcs_join_late_arm_direct s tail =
  let _pred = Atomics.exchange s.th tail 1L in
  if must_arm s then Isa.monitor s.th s.grant;
  Sim.wait s.step
