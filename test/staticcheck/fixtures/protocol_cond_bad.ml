(* Seeded violations for the protocol rule's conditional arms:
   Lock.mcs_acquire with its arm cache's [if (not spin) && must_arm s
   then ...] moved below the tail swap, through a helper and written
   directly.  Either way the arm counts, and either way it comes after
   the publish.  The stubs mirror the real module names so resolved-path
   suffix matching applies exactly as it does over lib/. *)

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

let arm_unless_spin ~spin th s = if (not spin) && must_arm s then Isa.monitor th s.grant
let wait s = Sim.wait s.step

(* lock-arm-before-publish (seeded): the helper's arm after the swap. *)
let mcs_join_late_helper ~spin s tail =
  let _pred = Atomics.exchange s.th tail 1L in
  arm_unless_spin ~spin s.th s;
  wait s

(* lock-arm-before-publish (seeded): the same [if] written directly. *)
let mcs_join_late_inline ~spin s tail =
  let _pred = Atomics.exchange s.th tail 1L in
  if (not spin) && must_arm s then Isa.monitor s.th s.grant;
  wait s
