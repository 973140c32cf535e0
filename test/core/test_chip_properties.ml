(* Property tests over the full chip: randomized schedules must never
   lose events or work, whatever the interleaving of wakes, stops and
   starts. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core
module State_store = Switchless.State_store

(* Property 1: a counter protocol survives arbitrary stop/start
   interference.  A driver increments a shared counter and rings a
   doorbell; a meddler randomly stops/starts the worker, and about half
   of the start hand-offs are delayed by up to 300 cycles (drawn from a
   second stream), so that hand-offs overtake one another.  The worker
   (mwait + catch-up loop) must end having observed every increment:
   the monitor latch + the start latch together guarantee no event is
   lost.  And a parked worker must leave [Waiting] for [Runnable] only
   by its wake or its deadline, the sanitizer's lifecycle rule: a start
   that marked it runnable would let the next stop miss the park. *)
let prop_no_lost_events_under_interference =
  QCheck.Test.make ~name:"no lost events under random stop/start" ~count:60
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(1 -- 25) (int_range 1 400)))
    (fun (seed, gaps) ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:2 in
      let rng = Sl_util.Rng.create (Int64.of_int (seed + 1)) in
      let delays = Sl_util.Rng.split rng in
      Chip.set_fault_hooks chip
        {
          Chip.spurious_wake_after = (fun ~ptid:_ -> None);
          start_extra_cycles =
            (fun ~ptid:_ ->
              if Sl_util.Rng.bool delays then 1 + Sl_util.Rng.int delays 300 else 0);
          crash_park_after = (fun ~ptid:_ -> None);
          crash_at_wake = (fun ~ptid:_ -> None);
        };
      let woken_otherwise = ref 0 in
      Chip.set_probe chip (function
        | Switchless.Probe.State_change
            { from_ = Ptid.Waiting; to_ = Ptid.Runnable; reason; _ }
          when reason <> "mwait-wake" && reason <> "mwait-deadline" ->
          incr woken_otherwise
        | _ -> ());
      let memory = Chip.memory chip in
      let counter = Memory.alloc memory 1 in
      let doorbell = Memory.alloc memory 1 in
      let seen = ref 0L in
      let worker = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
      Chip.attach worker (fun th ->
          Isa.monitor th doorbell;
          while true do
            (* Catch up on everything published so far — first right
               after arming, since a write that lands before the monitor
               is armed wakes nobody. *)
            let published = Isa.load th counter in
            if Int64.compare published !seen > 0 then begin
              Isa.exec th (10 * Int64.to_int (Int64.sub published !seen));
              seen := published
            end;
            ignore (Isa.mwait th)
          done);
      Chip.boot worker;
      (* Driver: publish one event per gap. *)
      let total = List.length gaps in
      Sim.spawn sim (fun () ->
          List.iter
            (fun gap ->
              Sim.delay gap;
              let v = Int64.add (Memory.read memory counter) 1L in
              Memory.write memory counter v;
              Memory.write memory doorbell 1L)
            gaps);
      (* Meddler: random stop/start storms from another core. *)
      let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
      Chip.attach boss (fun th ->
          for _ = 1 to 30 do
            Sim.delay (1 + Sl_util.Rng.int rng 300);
            if Sl_util.Rng.bool rng then Isa.stop th ~vtid:1
            else Isa.start th ~vtid:1
          done;
          (* Leave the worker enabled so it can finish draining. *)
          Isa.start th ~vtid:1);
      Chip.boot boss;
      Sim.run ~until:2_000_000 sim;
      Int64.to_int !seen = total && !woken_otherwise = 0)

(* Property 2: work conservation under random freeze windows — a job of W
   cycles interrupted by arbitrary stop/start pairs still completes, and
   the thread is billed exactly W. *)
let prop_work_survives_freezing =
  QCheck.Test.make ~name:"frozen work resumes and is fully billed" ~count:60
    QCheck.(pair (int_range 100 5000) (list_of_size Gen.(0 -- 10) (int_range 1 500)))
    (fun (work, pauses) ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:2 in
      let finished = ref false in
      let worker = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
      Chip.attach worker (fun th ->
          Isa.exec th work;
          finished := true);
      Chip.boot worker;
      let boss = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
      Chip.attach boss (fun th ->
          List.iter
            (fun pause ->
              Sim.delay pause;
              Isa.stop th ~vtid:1;
              Sim.delay pause;
              Isa.start th ~vtid:1)
            pauses);
      Chip.boot boss;
      Sim.run ~until:10_000_000 sim;
      let billed =
        Smt_core.thread_cycles (Chip.exec_core chip 0) ~slot:(Chip.smt_slot worker)
      in
      !finished && abs_float (billed -. float_of_int work) < 1.0)

(* Property 3: state placement invariants hold under random pin/unpin/
   prefetch/wake sequences. *)
let prop_state_store_with_pins =
  let small =
    {
      Params.default with
      Params.rf_capacity_bytes = 4 * 272;
      l2_state_capacity_bytes = 8 * 272;
      l3_state_capacity_bytes = 16 * 272;
    }
  in
  QCheck.Test.make ~name:"state store invariants under pin/prefetch/wake" ~count:150
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 3) (int_bound 11)))
    (fun ops ->
      let store = State_store.create small in
      let entry = Array.init 12 (fun ptid -> State_store.register store ~ptid ~bytes:272) in
      let ok = ref true in
      List.iter
        (fun (op, ptid) ->
          (* Wake, pin and prefetch may all legitimately refuse when the
             register file is saturated with pinned contexts. *)
          let e = entry.(ptid) in
          match op with
          | 0 -> (
            try ignore (State_store.wake_transfer_cycles store e)
            with Invalid_argument _ -> ())
          | 1 -> ( try State_store.pin store e with Invalid_argument _ -> ())
          | 2 -> State_store.unpin store e
          | _ -> (
            try State_store.prefetch store e with Invalid_argument _ -> ()))
        ops;
      List.iter
        (fun tier ->
          if
            State_store.used_bytes store tier > State_store.capacity_bytes store tier
          then ok := false)
        [ State_store.Register_file; State_store.L2; State_store.L3 ];
      let total =
        List.fold_left
          (fun acc tier -> acc + State_store.used_bytes store tier)
          0
          [ State_store.Register_file; State_store.L2; State_store.L3; State_store.Dram ]
      in
      !ok && total = 12 * 272)

(* Property 4: determinism — an arbitrary mixed scenario replays
   identically. *)
let prop_chip_determinism =
  QCheck.Test.make ~name:"chip runs replay bit-for-bit" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let run () =
        let sim = Sim.create () in
        let chip = Chip.create sim Params.default ~cores:2 in
        let memory = Chip.memory chip in
        let doorbell = Memory.alloc memory 1 in
        let trace = Buffer.create 64 in
        let worker = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
        Chip.attach worker (fun th ->
            Isa.monitor th doorbell;
            while true do
              let _ = Isa.mwait th in
              Isa.exec th 123;
              Buffer.add_string trace (Printf.sprintf "%d;" (Sim.now ()))
            done);
        Chip.boot worker;
        let rng = Sl_util.Rng.create (Int64.of_int seed) in
        Sim.spawn sim (fun () ->
            for _ = 1 to 20 do
              Sim.delay (1 + Sl_util.Rng.int rng 1000);
              Memory.write memory doorbell 1L
            done);
        Sim.run ~until:100_000 sim;
        Buffer.contents trace
      in
      String.equal (run ()) (run ()))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_no_lost_events_under_interference;
        prop_work_survives_freezing;
        prop_state_store_with_pins;
        prop_chip_determinism;
      ]
  in
  Alcotest.run "chip_properties" [ ("properties", qsuite) ]
