module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Params = Switchless.Params
module Ptid = Switchless.Ptid

(* Live words after a full major collection.  Fiber stacks live off the
   heap and are not counted. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

type reading = { heap_words : float; setup_minor_words : float; setup_s : float }

let measure ~cores ~per_core =
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores in
  let n = cores * per_core in
  let base = Memory.alloc (Chip.memory chip) n in
  (* One body for every thread, so that the figure holds no closure of
     the test's own. *)
  let body th =
    Isa.monitor th (base + Chip.ptid th - 1);
    ignore (Isa.mwait th : Memory.addr)
  in
  let before = live_words () in
  let minor0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  for core = 0 to cores - 1 do
    for j = 1 to per_core do
      let th =
        Chip.add_thread chip ~core ~ptid:((core * per_core) + j) ~mode:Ptid.User ()
      in
      Chip.attach th body;
      Chip.boot th
    done
  done;
  Sim.run sim;
  let setup_s = Unix.gettimeofday () -. t0 and minor1 = Gc.minor_words () in
  let after = live_words () in
  let parked =
    List.length
      (List.filter (fun th -> Chip.state th = Ptid.Waiting) (Chip.thread_list chip))
  in
  if parked <> n then
    failwith (Printf.sprintf "Parked_heap: %d of %d threads parked" parked n);
  ignore (Sys.opaque_identity (sim, chip));
  let per x = x /. float_of_int n in
  {
    heap_words = per (float_of_int (after - before));
    setup_minor_words = per (minor1 -. minor0);
    setup_s;
  }
