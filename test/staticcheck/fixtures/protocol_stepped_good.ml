(* Clean counterparts for the protocol rule over stepped waits: the
   shapes of Lock's waits that must stay silent. *)

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
  let fetch_add (_ : Isa.thread) (_ : Memory.addr) (_ : int64) = 0L
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
let arm_grant ~spin th s = if (not spin) && must_arm s then Isa.monitor th s.grant

(* Runs the stepped wait. *)
let wait s = Sim.wait s.step

(* Lock.mcs_acquire's order: arm, then publish, then wait. *)
let mcs_join_armed ~spin s tail =
  arm_grant ~spin s.th s;
  let _pred = Atomics.exchange s.th tail 1L in
  wait s

(* Lock.mcs_acquire's own shape: the arm cache's [if] written directly
   before the swap counts as the arm, as the helper's call above does. *)
let mcs_join_armed_direct ~spin s tail =
  if (not spin) && must_arm s then Isa.monitor s.th s.grant;
  let _pred = Atomics.exchange s.th tail 1L in
  wait s

(* A ticket waiter polls in its steps and arms nothing, so the draw that
   publishes it may come first. *)
let ticket_join s word =
  let _my = Atomics.fetch_add s.th word 1L in
  wait s

(* An arm with no stepped wait after it parks nothing here. *)
let arm_then_publish_no_wait s tail =
  let _pred = Atomics.exchange s.th tail 1L in
  arm_grant ~spin:false s.th s

(* A stepped wait inside a callback belongs to the callback's flow. *)
let join_deferred s tail later =
  let _pred = Atomics.exchange s.th tail 1L in
  arm_grant ~spin:false s.th s;
  later (fun () -> wait s)
