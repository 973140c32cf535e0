(* Tests for lib/dist: the scheduling-policy layer against a naive
   reference model, and the Rpc/Server lifecycles. *)

module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Dist = Sl_util.Dist
module Rng = Sl_util.Rng
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals
module Server = Sl_dist.Server
module Sched_policy = Sl_dist.Sched_policy
module Rpc = Sl_dist.Rpc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- naive reference model ----------------------------------------------- *)

(* Replay the exact request stream a [Server.config] generates: same
   seed, same draw order as every runner (interarrival and service
   alternate on one SplitMix64 stream). *)
let request_stream (cfg : Server.config) =
  let sim = Sim.create () in
  let rng = Rng.create cfg.Server.seed in
  let acc = ref [] in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:cfg.Server.rate_per_kcycle)
    ~service:cfg.Server.service ~count:cfg.Server.count
    ~sink:(fun req ->
      acc := (req.Openloop.arrival, req.Openloop.service_cycles) :: !acc);
  Sim.run sim;
  List.rev !acc

(* Zero-overhead k-server FCFS: the lower bound any real scheduler with
   [runnable_limit = k] admission can only approach.  Requests are taken
   in arrival order; each starts on the earliest-free server. *)
let reference_slowdowns ~servers reqs =
  let free = Array.make servers 0 in
  let slow =
    List.map
      (fun (arrival, service) ->
        let best = ref 0 in
        Array.iteri (fun i t -> if t < free.(!best) then best := i) free;
        let start = max arrival free.(!best) in
        free.(!best) <- start + service;
        let sojourn = start + service - arrival in
        float_of_int sojourn /. float_of_int (max 1 service))
      reqs
  in
  let arr = Array.of_list slow in
  Array.sort compare arr;
  arr

let mk_config ~seed ~rate ~service ~count =
  {
    Server.params = Switchless.Params.default;
    seed;
    cores = 1;
    rate_per_kcycle = rate;
    service;
    count;
  }

(* Property: FCFS admission with runnable_limit = smt_width can never
   beat the zero-overhead 2-server FCFS bound — sorted slowdowns
   dominate the reference element-wise (pointwise per-request domination
   survives sorting), and every request completes. *)
let sched_policy_dominates_reference =
  QCheck.Test.make ~count:15 ~name:"sched_policy fcfs >= naive reference"
    QCheck.(
      triple (int_bound 1000) (int_bound 2)
        (float_range 0.05 0.35))
    (fun (seed, dist_pick, rate) ->
      let service =
        match dist_pick with
        | 0 -> Dist.Constant 900.0
        | 1 -> Dist.Exponential 700.0
        | _ -> Dist.Uniform (200.0, 1600.0)
      in
      let cfg =
        mk_config ~seed:(Int64.of_int (seed + 1)) ~rate ~service ~count:120
      in
      let limit = cfg.Server.params.Switchless.Params.smt_width in
      let reqs = request_stream cfg in
      let stats = Sched_policy.run ~pool:16 ~runnable_limit:limit ~mode:Fcfs cfg in
      let reference = reference_slowdowns ~servers:limit reqs in
      stats.Server.completed = cfg.Server.count
      && Array.length stats.Server.slowdowns = Array.length reference
      && Array.for_all2
           (fun measured bound -> measured >= bound -. 1e-9)
           stats.Server.slowdowns reference)

(* Preemption is not FCFS — a short request may legitimately finish
   before the FCFS reference says it could — so the per-request
   domination argument does not apply.  What must still hold: every
   request completes, every sojourn covers its own demand (slowdown ≥ 1
   whenever the demand is non-trivial), and the run respects the
   capacity bound (2 pipes cannot retire the offered work faster than
   work conservation allows). *)
let sched_policy_preemptive_sanity =
  QCheck.Test.make ~count:10 ~name:"sched_policy preemptive sanity"
    QCheck.(pair (int_bound 1000) (float_range 0.05 0.3))
    (fun (seed, rate) ->
      let service = Dist.bimodal_with_cv2 ~mean:1000.0 ~cv2:8.0 ~p_long:0.05 in
      let cfg =
        mk_config ~seed:(Int64.of_int (seed + 7)) ~rate ~service ~count:100
      in
      let limit = cfg.Server.params.Switchless.Params.smt_width in
      let reqs = request_stream cfg in
      let stats =
        Sched_policy.run ~pool:16 ~runnable_limit:limit
          ~mode:(Preemptive 2000) cfg
      in
      let total_work =
        List.fold_left (fun acc (_, s) -> acc + s) 0 reqs
      in
      stats.Server.completed = cfg.Server.count
      && Array.for_all (fun s -> s >= 1.0 -. 1e-9) stats.Server.slowdowns
      && limit * stats.Server.elapsed_cycles >= total_work)

(* The design claim behind Preemptive: under high-CV² service times,
   preemption keeps short requests from queueing behind long ones, so
   the tail of the slowdown distribution improves over FCFS. *)
let test_preemption_beats_fcfs_tail () =
  let cfg =
    mk_config ~seed:11L ~rate:0.8
      ~service:(Dist.bimodal_with_cv2 ~mean:1000.0 ~cv2:16.0 ~p_long:0.02)
      ~count:600
  in
  let fcfs = Sched_policy.run ~pool:64 ~runnable_limit:2 ~mode:Fcfs cfg in
  let pre =
    Sched_policy.run ~pool:64 ~runnable_limit:2 ~mode:(Preemptive 1500) cfg
  in
  check_int "fcfs completes" cfg.Server.count fcfs.Server.completed;
  check_int "preemptive completes" cfg.Server.count pre.Server.completed;
  let p99 stats = Server.percentile stats.Server.slowdowns 0.99 in
  check_bool "preemptive p99 slowdown below fcfs" true (p99 pre < p99 fcfs);
  check_bool "preemption pays mechanism cycles" true
    (pre.Server.switch_overhead_cycles > fcfs.Server.switch_overhead_cycles)

(* More requests in flight than the pool has workers: 5,000-cycle
   requests at one per kcycle exhaust 16 workers, two runnable at a
   time, with a fresh request at the queue's head.  A quantum tick must
   not stop a worker then, since the stop frees no worker the head
   needs: once every admitted worker was stopped that way, nothing ran,
   no worker came free and the ticker kept the run going forever. *)
let test_preemptive_exhausted_pool_completes () =
  List.iter
    (fun count ->
      let cfg = mk_config ~seed:1L ~rate:1.0 ~service:(Dist.Constant 5000.0) ~count in
      let stats =
        Sched_policy.run ~pool:16 ~runnable_limit:2 ~mode:(Preemptive 500) cfg
      in
      check_int (Printf.sprintf "%d requests complete" count) count stats.Server.completed)
    [ 20; 40 ]

let test_sched_policy_rejects_bad_pool () =
  let cfg = mk_config ~seed:1L ~rate:0.1 ~service:(Dist.Constant 100.0) ~count:5 in
  Alcotest.check_raises "pool must exceed limit"
    (Invalid_argument "Sched_policy.run: need pool > runnable_limit > 0")
    (fun () -> ignore (Sched_policy.run ~pool:2 ~runnable_limit:2 ~mode:Fcfs cfg))

(* --- Rpc lifecycle -------------------------------------------------------- *)

let test_rpc_blocking_call_lifecycle () =
  let sim = Sim.create () in
  let params = Switchless.Params.default in
  let chip = Chip.create sim params ~cores:1 in
  let rng = Rng.create 5L in
  let remote =
    Rpc.create_remote chip ~rtt:(Dist.Constant 3000.0) ~server_work:500 ~rng
  in
  let calls_per_client = 8 in
  let clients = 2 in
  let finished = ref 0 in
  for i = 1 to clients do
    let s = Rpc.session remote in
    let th = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
    Chip.attach th (fun th ->
        for _ = 1 to calls_per_client do
          Rpc.call s ~client:th
        done;
        incr finished);
    Chip.boot th
  done;
  Sim.run sim;
  check_int "all clients ran to completion" clients !finished;
  check_int "remote saw every call" (clients * calls_per_client)
    (Rpc.completed remote);
  (* Each call blocks for at least rtt + server_work, and the two
     clients overlap their waiting (blocking hides latency). *)
  check_bool "elapsed covers serial calls of one client" true
    (Sim.time sim >= calls_per_client * 3500);
  check_bool "clients overlapped instead of serializing" true
    (Sim.time sim < clients * calls_per_client * 3500)

(* --- Server lifecycle ----------------------------------------------------- *)

let test_percentile () =
  let arr = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 2.0 (Server.percentile arr 0.5);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Server.percentile arr 1.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Server.percentile [||] 0.5)

let test_run_software_lifecycle () =
  let cfg = mk_config ~seed:3L ~rate:0.2 ~service:(Dist.Exponential 800.0) ~count:200 in
  let stats = Server.run_software cfg in
  check_int "completed" cfg.Server.count stats.Server.completed;
  check_bool "elapsed positive" true (stats.Server.elapsed_cycles > 0);
  check_int "one slowdown per request" cfg.Server.count
    (Array.length stats.Server.slowdowns);
  check_bool "slowdowns non-negative and sorted" true
    (stats.Server.slowdowns.(0) >= 0.0
    && stats.Server.slowdowns.(0)
       <= stats.Server.slowdowns.(cfg.Server.count - 1))

let test_run_hw_pool_lifecycle () =
  let cfg = mk_config ~seed:4L ~rate:0.3 ~service:(Dist.Exponential 800.0) ~count:200 in
  let stats = Server.run_hw_pool ~pool_per_core:8 cfg in
  check_int "completed" cfg.Server.count stats.Server.completed;
  check_bool "no software switch tax" true
    (stats.Server.switch_overhead_cycles = 0.0)

let test_run_hw_pool_closed_lifecycle () =
  let cfg = mk_config ~seed:6L ~rate:0.0 ~service:(Dist.Exponential 900.0) ~count:150 in
  let r =
    Server.run_hw_pool_closed ~pool_per_core:8 ~clients:4
      ~think:(Dist.Exponential 2000.0) cfg
  in
  check_int "issued everything" cfg.Server.count r.Server.issued;
  check_int "finished everything" cfg.Server.count r.Server.finished;
  check_int "nothing timed out" 0 r.Server.c_timed_out;
  check_bool "wall clock advanced" true (r.Server.wall_cycles > 0);
  check_int "latency recorded per request" cfg.Server.count
    r.Server.lat.Sl_workload.Latency.count;
  Alcotest.check_raises "clients must be positive"
    (Invalid_argument "Server.run_hw_pool_closed: clients must be positive")
    (fun () ->
      ignore (Server.run_hw_pool_closed ~clients:0 ~think:(Dist.Constant 1.0) cfg))

(* Closed loop self-throttles: doubling the population at saturation
   must not change the number of requests issued (fixed count), and a
   single client serializes perfectly. *)
let test_closed_loop_single_client_serializes () =
  let cfg = mk_config ~seed:9L ~rate:0.0 ~service:(Dist.Constant 1000.0) ~count:50 in
  let r =
    Server.run_hw_pool_closed ~pool_per_core:4 ~clients:1 ~think:(Dist.Constant 500.0)
      cfg
  in
  check_int "finished" cfg.Server.count r.Server.finished;
  (* Every request: >= think (500) + service (1000); one at a time. *)
  check_bool "wall covers serial execution" true
    (r.Server.wall_cycles >= cfg.Server.count * 1500)

let () =
  Alcotest.run "dist"
    [
      ( "sched_policy",
        [
          QCheck_alcotest.to_alcotest sched_policy_dominates_reference;
          QCheck_alcotest.to_alcotest sched_policy_preemptive_sanity;
          Alcotest.test_case "preemption beats fcfs tail" `Quick
            test_preemption_beats_fcfs_tail;
          Alcotest.test_case "preemptive exhausted pool completes" `Quick
            test_preemptive_exhausted_pool_completes;
          Alcotest.test_case "rejects bad pool" `Quick
            test_sched_policy_rejects_bad_pool;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "blocking call lifecycle" `Quick
            test_rpc_blocking_call_lifecycle;
        ] );
      ( "server",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "run_software lifecycle" `Quick
            test_run_software_lifecycle;
          Alcotest.test_case "run_hw_pool lifecycle" `Quick
            test_run_hw_pool_lifecycle;
          Alcotest.test_case "run_hw_pool_closed lifecycle" `Quick
            test_run_hw_pool_closed_lifecycle;
          Alcotest.test_case "single client serializes" `Quick
            test_closed_loop_single_client_serializes;
        ] );
    ]
