(* E11 (ablation) — hardware thread priorities for time-critical work.

   §2 promises "we can use hardware thread priorities to eliminate delays
   for time-critical interrupts", and §4 sketches priority support.  Here
   a latency-critical handler thread is woken every 5,000 cycles on a core
   crowded with 8 batch threads.  Its share weight is the knob: weight w
   gives it min(1, k·w / Σw) of a pipeline.

   Expected shape: with weight 1 the handler completes its 500-cycle
   response at the processor-sharing rate (≈ 2/9 of a pipe → ~2,275
   cycles); raising the weight saturates its rate at 1.0 and the response
   approaches wake(26) + 500 cycles, while the batch threads keep the
   remaining capacity (work conservation — no polling reserve needed). *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let handler_work = 500
let period = 5_000
let events = 400
let batch_threads = 8

let measure weight =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let memory = Chip.memory chip in
  let doorbell = Memory.alloc memory 1 in
  let latencies = Histogram.create () in
  let stop = ref false in
  let handler = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor ~weight () in
  Chip.attach handler (fun th ->
      Isa.monitor th doorbell;
      for i = 1 to events do
        let _ = Isa.mwait th in
        Isa.exec th handler_work;
        Histogram.record latencies (Sim.now () - (i * period));
        ignore i
      done;
      stop := true);
  Chip.boot handler;
  for b = 1 to batch_threads do
    let bg = Chip.add_thread chip ~core:0 ~ptid:(100 + b) ~mode:Ptid.User () in
    Chip.attach bg (fun th ->
        while not !stop do
          Isa.exec th 200
        done);
    Chip.boot bg
  done;
  Sim.spawn sim (fun () ->
      for _ = 1 to events do
        Sim.delay period;
        Memory.write memory doorbell 1L
      done);
  Sim.run sim;
  let batch_done =
    Smt_core.work_done (Chip.exec_core chip 0) Smt_core.Useful
    -. float_of_int handler_work *. float_of_int events
  in
  (latencies, batch_done)

let run b =
  let rows =
    List.map
      (fun weight ->
        let latencies, batch_done = measure weight in
        [
          Tablefmt.Float weight;
          Tablefmt.Int (Histogram.quantile latencies 0.5);
          Tablefmt.Int (Histogram.quantile latencies 0.99);
          Tablefmt.Float (batch_done /. 1.0e6);
        ])
      [ 1.0; 4.0; 16.0; 64.0 ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E11: time-critical handler on a crowded core (500-cyc response, 8 batch threads)"
       ~header:[ "handler weight"; "p50 resp (cyc)"; "p99 resp (cyc)"; "batch Mcycles" ]
       rows);
  Buffer.add_string b
    "Expected: p50 falls from ~2,300 (fair share 2/9 of a pipe) toward ~530\n\
     (full pipe + wake) as the weight rises; batch throughput barely moves\n\
     because the handler's demand is only 10% of one pipe.\n\n"
