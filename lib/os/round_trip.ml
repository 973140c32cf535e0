module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Swsched = Sl_baseline.Swsched

(* The warm-up call stays outside the timed window, so every design is
   measured in its steady state. *)
let timed ~calls call =
  call ();
  let t0 = Sim.now () in
  for _ = 1 to calls do
    call ()
  done;
  float_of_int (Sim.now () - t0) /. float_of_int calls

let software params ~calls setup =
  if calls < 1 then invalid_arg "Round_trip.software: calls must be at least 1";
  let sim = Sim.create () in
  let sched = Swsched.create sim params ~warmup:false ~cores:1 () in
  let call = setup sim sched in
  let client = Swsched.thread sched () in
  let mean = ref 0.0 in
  Sim.spawn sim (fun () ->
      Swsched.exec client 10;
      mean := timed ~calls (fun () -> call client));
  Sim.run sim;
  !mean

let hardware params ~calls setup =
  if calls < 1 then invalid_arg "Round_trip.hardware: calls must be at least 1";
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:2 in
  let client, call = setup chip in
  let mean = ref 0.0 in
  Chip.attach client (fun th -> mean := timed ~calls (fun () -> call th));
  Chip.boot client;
  Sim.run sim;
  (!mean, chip)
