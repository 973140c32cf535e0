(* E3 — "Exception-less System Calls": cycles per call by kernel-work size.

   Steady-state round-trip cost of one synchronous system call under the
   three designs, minus the kernel work itself, is the mechanism tax:

   - trap:      ~150 direct + ~300 pollution (FlexSC's indirect cost)
   - FlexSC:    no mode switch, but half a batch window of added latency
   - hw thread: store + start + state wake ≈ 60-70 cycles total

   Expected shape: the hardware-thread design beats the trap by ~6-8x on
   mechanism tax and beats FlexSC on latency whenever the batch window
   exceeds ~100 cycles. *)

module Params = Switchless.Params
module Chip = Switchless.Chip
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core
module Syscall = Sl_os.Syscall
module Hw_channel = Sl_os.Hw_channel
module Round_trip = Sl_os.Round_trip
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let calls = 200

let measure_trap work =
  Round_trip.software p ~calls (fun _ _ app -> Syscall.Trap.call app p ~kernel_work:work)

let measure_flexsc work =
  Round_trip.software p ~calls (fun sim _ ->
      let kernel_core = Smt_core.create sim p in
      let fx = Syscall.Flexsc.create sim ~batch_window:300 ~kernel_core () in
      fun app -> Syscall.Flexsc.call fx app ~kernel_work:work)

let measure_hw work =
  fst
    (Round_trip.hardware p ~calls (fun chip ->
         let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
         let app = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
         (app, fun th -> Hw_channel.call sys ~client:th ~work ())))

(* E3b: how good is the flat 300-cycle pollution charge?  Replay working
   sets through the measured cache/TLB model: warm the set, apply one
   trap's worth of pollution, and count the extra re-walk cycles. *)
let pollution_sensitivity () =
  let module Pollution = Sl_mem.Pollution in
  let rng = Sl_util.Rng.create 3L in
  List.map
    (fun ws_kb ->
      let bytes = ws_kb * 1024 in
      let m = Pollution.create () in
      ignore (Pollution.walk_cost m ~asid:1 ~start:0 ~bytes);
      let warm = Pollution.walk_cost m ~asid:1 ~start:0 ~bytes in
      Pollution.trap_pollution m rng;
      let after = Pollution.walk_cost m ~asid:1 ~start:0 ~bytes in
      [
        Tablefmt.Int ws_kb;
        Tablefmt.Int warm;
        Tablefmt.Int after;
        Tablefmt.Int (after - warm);
        Tablefmt.Int p.Params.trap_pollution_cycles;
      ])
    [ 4; 16; 64; 256 ]

let run b =
  let works = [ 0; 100; 500; 2000; 10000 ] in
  let rows =
    List.map
      (fun work ->
        let trap = measure_trap work in
        let fx = measure_flexsc work in
        let hw = measure_hw work in
        let w = float_of_int work in
        [
          Tablefmt.Int work;
          Tablefmt.Float trap;
          Tablefmt.Float fx;
          Tablefmt.Float hw;
          Tablefmt.Float (trap -. w);
          Tablefmt.Float (fx -. w);
          Tablefmt.Float (hw -. w);
        ])
      works
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:"E3: cycles per synchronous syscall (batch window 300 for FlexSC)"
       ~header:
         [ "kernel work"; "trap"; "flexsc"; "hw thread"; "tax:trap"; "tax:flexsc"; "tax:hw" ]
       rows);
  Printf.bprintf b
    "Mechanism tax at work=500: trap %.0f, flexsc %.0f, hw %.0f cycles\n\n"
    (measure_trap 500 -. 500.0)
    (measure_flexsc 500 -. 500.0)
    (measure_hw 500 -. 500.0);
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E3b: indirect trap cost measured on the cache/TLB model vs the flat charge"
       ~header:
         [ "working set KiB"; "warm walk"; "after trap"; "measured tax"; "flat charge" ]
       (pollution_sensitivity ()));
  Buffer.add_string b
    "The flat 300-cycle charge matches small working sets; large sets pay\n\
     more per trap (FlexSC's finding) — making the trap column in E3 a\n\
     lower bound and the hardware-thread win conservative.\n\n"
