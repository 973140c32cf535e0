(* E12 (ablation) — hardware dispatch policy meets the state hierarchy.

   §4 proposes hardware thread queuing/load balancing (Carbon-style) and,
   separately, criticality-aware placement of thread state.  This
   experiment shows why the two must be designed together: with 600
   worker threads on one core (more than the 240 the register file
   holds), a FIFO dispatcher rotates through the whole pool, so nearly
   every wake pays an L2/L3 state transfer; LIFO or explicit
   locality-aware dispatch keeps the active set register-file-resident.

   Expected shape: identical throughput (work conservation), but FIFO's
   p50 latency carries a ~30-60-cycle state-transfer surcharge and its
   RF-hit fraction collapses, while LIFO/Locality stay ≈ 100% RF wakes. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Hw_dispatch = Switchless.Hw_dispatch
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals

let p = Params.default
let workers = 600
let service = 400
let count = 4000
let rate = 1.2

let measure policy =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let dispatch = Hw_dispatch.create chip ~core:0 ~policy () in
  let latencies = Histogram.create () in
  let arrivals = Hashtbl.create count in
  let done_count = ref 0 in
  for i = 1 to workers do
    let th = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
    Chip.attach th (fun th ->
        Hw_dispatch.worker_loop dispatch th (fun payload ->
            Isa.exec th service;
            (match Hashtbl.find_opt arrivals payload with
            | Some arrival ->
              Histogram.record latencies (Sim.now () - arrival)
            | None -> ());
            incr done_count));
    Chip.boot th
  done;
  let rng = Sl_util.Rng.create 31L in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:rate)
    ~service:(Sl_util.Dist.Constant (float_of_int service))
    ~count
    ~sink:(fun req ->
      Hashtbl.replace arrivals (Int64.of_int req.Openloop.req_id) req.Openloop.arrival;
      Hw_dispatch.submit dispatch (Int64.of_int req.Openloop.req_id));
  (* Workers park forever once the stream ends; bound the run. *)
  Sim.run ~until:((count * 1200) + 100_000) sim;
  let stats = Chip.stats chip in
  let total_wakes =
    stats.Chip.rf_wakes + stats.Chip.l2_wakes + stats.Chip.l3_wakes
    + stats.Chip.dram_wakes
  in
  let rf_frac =
    if total_wakes = 0 then 0.0
    else 100.0 *. float_of_int stats.Chip.rf_wakes /. float_of_int total_wakes
  in
  (latencies, rf_frac, stats.Chip.demotions, !done_count)

let run b =
  let rows =
    List.map
      (fun (name, policy) ->
        let latencies, rf_frac, demotions, completed = measure policy in
        [
          Tablefmt.String name;
          Tablefmt.Int completed;
          Tablefmt.Int (Histogram.quantile latencies 0.5);
          Tablefmt.Int (Histogram.quantile latencies 0.99);
          Tablefmt.Float rf_frac;
          Tablefmt.Int demotions;
        ])
      [
        ("FIFO", Hw_dispatch.Fifo);
        ("LIFO", Hw_dispatch.Lifo);
        ("Locality", Hw_dispatch.Locality);
      ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E12: dispatch policy x state hierarchy (600 workers, 240 fit in the RF)"
       ~header:[ "policy"; "done"; "p50 (cyc)"; "p99 (cyc)"; "RF-wake %"; "demotions" ]
       rows)
