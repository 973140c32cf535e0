(* Property tests over the OS layer: channels never deadlock or lose
   requests under random client interleavings; I/O paths conserve
   packets. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Hw_channel = Sl_os.Hw_channel
module Io_path = Sl_os.Io_path
module Arrivals = Sl_workload.Arrivals
module Histogram = Sl_util.Histogram
module Dist = Sl_util.Dist
module Rng = Sl_util.Rng

(* Property 1: N clients with random think times all complete their calls
   through one shared channel — serialization never deadlocks and the
   server serves exactly the submitted number of requests. *)
let prop_channel_serves_all_clients =
  QCheck.Test.make ~name:"hw channel serves all under random interleavings" ~count:40
    QCheck.(list_of_size Gen.(1 -- 6) (pair (int_range 1 4) (int_range 1 2000)))
    (fun clients ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:2 in
      let channel = Hw_channel.create chip ~core:1 ~server_ptid:500 () in
      let total = List.fold_left (fun acc (calls, _) -> acc + calls) 0 clients in
      let completed = ref 0 in
      List.iteri
        (fun i (calls, think) ->
          let client =
            Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.Supervisor ()
          in
          Chip.attach client (fun th ->
              for _ = 1 to calls do
                Sim.delay think;
                Hw_channel.call channel ~client:th ~work:100 ();
                incr completed
              done);
          Chip.boot client)
        clients;
      Sim.run ~until:50_000_000 sim;
      !completed = total && Hw_channel.served channel = total)

(* Property 2: the mwait I/O path conserves packets at any load: processed
   + dropped = injected, and every latency is at least the hardware
   minimum (DMA + match + restart). *)
let prop_io_conservation =
  QCheck.Test.make ~name:"io path conserves packets at any load" ~count:25
    QCheck.(pair (int_range 1 50) (int_range 50 400))
    (fun (rate_tenths, count) ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.count;
          arrivals = Arrivals.poisson ~rate_per_kcycle:(float_of_int rate_tenths /. 10.0);
          service = Dist.Constant 200.0;
        }
      in
      let s = (Io_path.run Io_path.Mwait cfg).Io_path.io in
      s.Io_path.processed = count
      && s.Io_path.dropped = 0
      && Histogram.min_value s.Io_path.latencies >= 200)

(* Property 3: work conservation across designs — total useful cycles
   equal packets x work for every design. *)
let prop_designs_do_same_useful_work =
  QCheck.Test.make ~name:"all designs do identical useful work" ~count:15
    QCheck.(int_range 50 300)
    (fun count ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.count;
          arrivals = Arrivals.poisson ~rate_per_kcycle:0.4;
          service = Dist.Constant 300.0;
        }
      in
      let expected = float_of_int count *. 300.0 in
      let close d =
        let s = (Io_path.run d cfg).Io_path.io in
        abs_float (s.Io_path.useful_cycles -. expected) < 2.0 *. float_of_int count
      in
      List.for_all close Io_path.[ Mwait; Polling; Irq; Napi ])

(* Property 4: every delivery design serves the same requests.  Over a
   random seed and a constant or sampled service demand, each design
   serves exactly [count] requests with no drops, and reports as useful
   cycles exactly the sum of the sampled demands. *)
let deliveries =
  Io_path.
    [
      Mwait;
      Mwait_hardened { watchdog = false; horizon = None };
      Rss 4;
      Polling;
      Irq;
      Napi;
      Flexsc;
    ]

(* Replay the request stream's draws: same seed, same order as
   [Openloop.run] (gap, then demand, on one stream). *)
let total_demand (cfg : Io_path.config) =
  let rng = Rng.create cfg.Io_path.seed in
  let next_gap = Arrivals.sampler cfg.Io_path.arrivals rng in
  let total = ref 0 in
  for _ = 1 to cfg.Io_path.count do
    ignore (next_gap ());
    total := !total + max 0 (int_of_float (Dist.sample cfg.Io_path.service rng))
  done;
  float_of_int !total

let prop_every_delivery_serves_the_same_requests =
  QCheck.Test.make ~name:"every delivery serves the sampled requests" ~count:20
    QCheck.(pair (int_range 1 1_000_000) bool)
    (fun (seed, sampled) ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.seed = Int64.of_int seed;
          count = 150;
          arrivals = Arrivals.poisson ~rate_per_kcycle:0.3;
          service = (if sampled then Dist.Exponential 1400.0 else Dist.Constant 500.0);
        }
      in
      let expected = total_demand cfg in
      List.for_all
        (fun d ->
          let s = (Io_path.run d cfg).Io_path.io in
          s.Io_path.processed = cfg.Io_path.count
          && s.Io_path.dropped = 0
          && abs_float (s.Io_path.useful_cycles -. expected) <= 1e-9 *. expected)
        deliveries)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_channel_serves_all_clients;
        prop_io_conservation;
        prop_designs_do_same_useful_work;
        prop_every_delivery_serves_the_same_requests;
      ]
  in
  Alcotest.run "os_properties" [ ("properties", qsuite) ]
