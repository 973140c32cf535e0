(* Thread-per-request servers and latency hiding (§2 "Simpler Distributed
   Programming").

   Part 1 — latency hiding: a distributed client issues blocking RPCs.
   With one hardware thread the core idles during every round trip; with
   64 threads the same core overlaps them — plain blocking code, no event
   loop, no software scheduler.

   Part 2 — tail latency: an open-loop server with high service-time
   dispersion (CV² = 16), thread-per-request.  Software threads
   multiplexed FCFS make short requests wait behind long ones; hardware
   threads shared processor-style keep the slowdown tail flat.

   Run with: dune exec examples/thread_per_request.exe *)

module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Params = Switchless.Params
module Rpc = Sl_dist.Rpc
module Server = Sl_dist.Server
module Tablefmt = Sl_util.Tablefmt

let latency_hiding () =
  print_endline "-- part 1: hiding a 5000-cycle RPC round trip --";
  let throughput n_threads =
    let sim = Sim.create () in
    let chip = Chip.create sim Params.default ~cores:1 in
    let rng = Sl_util.Rng.create 7L in
    let remote =
      Rpc.create_remote chip ~rtt:(Sl_util.Dist.Exponential 5000.0) ~server_work:0 ~rng
    in
    for i = 1 to n_threads do
      let session = Rpc.session remote in
      let client = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
      Chip.attach client (fun th ->
          for _ = 1 to 20 do
            Rpc.call session ~client:th;
            Isa.exec th 250
          done);
      Chip.boot client
    done;
    Sim.run sim;
    1.0e6 *. float_of_int (Rpc.completed remote) /. float_of_int (Sim.time sim)
  in
  List.iter
    (fun n -> Printf.printf "  %4d blocking threads: %8.1f RPCs per Mcycle\n" n (throughput n))
    [ 1; 4; 16; 64 ]

let tail_latency () =
  print_endline "\n-- part 2: p99 slowdown, bimodal service (CV^2 = 16), 2 cores --";
  let cfg =
    {
      Server.params = Params.default;
      seed = 11L;
      cores = 2;
      rate_per_kcycle = 0.6;
      service = Sl_util.Dist.bimodal_with_cv2 ~mean:2000.0 ~cv2:16.0 ~p_long:0.02;
      count = 3000;
    }
  in
  let sw = Server.run_software cfg in
  let rr = Server.run_software ~quantum:1000 cfg in
  let hw = Server.run_hw_pool cfg in
  let row name (s : Server.stats) =
    [
      Tablefmt.String name;
      Tablefmt.Int s.Server.completed;
      Tablefmt.Float (Server.percentile s.Server.slowdowns 0.5);
      Tablefmt.Float (Server.percentile s.Server.slowdowns 0.99);
      Tablefmt.Float (s.Server.switch_overhead_cycles /. 1.0e6);
    ]
  in
  print_endline
    (Tablefmt.render ~title:"thread-per-request server"
       ~header:[ "design"; "done"; "p50 slowdown"; "p99 slowdown"; "switch Mcyc" ]
       [
         row "software FCFS" sw;
         row "software RR (1k quantum)" rr;
         row "hw threads (PS)" hw;
       ])

let () =
  latency_hiding ();
  tail_latency ()
