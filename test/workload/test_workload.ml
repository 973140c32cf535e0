(* Tests for the workload layer: open-loop and closed-loop generators,
   arrival processes, and SLO latency accounting. *)

module Sim = Sl_engine.Sim
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals
module Closedloop = Sl_workload.Closedloop
module Latency = Sl_workload.Latency
module Dist = Sl_util.Dist
module Rng = Sl_util.Rng
module Parallel = Sl_util.Parallel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_emits_exactly_count () =
  let sim = Sim.create () in
  let rng = Rng.create 1L in
  let seen = ref [] in
  Openloop.run sim rng ~arrivals:(Arrivals.Stationary (Dist.Constant 100.0))
    ~service:(Dist.Constant 50.0) ~count:25
    ~sink:(fun req -> seen := req :: !seen);
  Sim.run sim;
  check_int "count" 25 (List.length !seen);
  let ids = List.rev_map (fun r -> r.Openloop.req_id) !seen in
  Alcotest.(check (list int)) "ids in order" (List.init 25 (fun i -> i)) ids

let test_constant_interarrival_schedule () =
  let sim = Sim.create () in
  let rng = Rng.create 1L in
  let times = ref [] in
  Openloop.run sim rng ~arrivals:(Arrivals.Stationary (Dist.Constant 100.0))
    ~service:(Dist.Constant 1.0) ~count:3
    ~sink:(fun req -> times := req.Openloop.arrival :: !times);
  Sim.run sim;
  Alcotest.(check (list int)) "arrivals" [ 300; 200; 100 ] !times

let test_arrivals_monotone_and_open_loop () =
  let sim = Sim.create () in
  let rng = Rng.create 7L in
  let last = ref 0 in
  let ok = ref true in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:2.0)
    ~service:(Dist.Exponential 500.0) ~count:500
    ~sink:(fun req ->
      if req.Openloop.arrival < !last then ok := false;
      last := req.Openloop.arrival);
  Sim.run sim;
  check_bool "monotone arrivals" true !ok

let test_poisson_rate_roughly_matches () =
  let sim = Sim.create () in
  let rng = Rng.create 3L in
  let n = 20_000 in
  let last = ref 0 in
  Openloop.run sim rng
    ~arrivals:(Arrivals.poisson ~rate_per_kcycle:1.0)
    ~service:(Dist.Constant 0.0) ~count:n
    ~sink:(fun req -> last := req.Openloop.arrival);
  Sim.run sim;
  (* Mean gap should be ~1000 cycles. *)
  let mean_gap = float_of_int !last /. float_of_int n in
  check_bool "mean inter-arrival within 3%" true (abs_float (mean_gap -. 1000.0) < 30.0)

let test_service_never_negative () =
  let sim = Sim.create () in
  let rng = Rng.create 5L in
  let ok = ref true in
  Openloop.run sim rng ~arrivals:(Arrivals.Stationary (Dist.Constant 10.0))
    ~service:(Dist.Lognormal { mu = 2.0; sigma = 2.0 })
    ~count:2000
    ~sink:(fun req -> if req.Openloop.service_cycles < 0 then ok := false);
  Sim.run sim;
  check_bool "non-negative service" true !ok

(* The sink runs in the arrival's event, not in a process: it cannot
   fork a child, and a process it spawns starts at the arrival tick. *)
let test_sink_fork_raises () =
  let sim = Sim.create () in
  Openloop.run sim (Rng.create 1L) ~arrivals:(Arrivals.Stationary (Dist.Constant 100.0))
    ~service:(Dist.Constant 1.0) ~count:1
    ~sink:(fun _ -> Sim.fork ignore);
  Alcotest.check_raises "fork from the sink"
    (Invalid_argument "Sim.fork: not called from a process") (fun () -> Sim.run sim)

let test_sink_spawn_starts_at_arrival () =
  let sim = Sim.create () in
  let started = ref [] in
  Openloop.run sim (Rng.create 1L) ~arrivals:(Arrivals.Stationary (Dist.Constant 100.0))
    ~service:(Dist.Constant 1.0) ~count:3
    ~sink:(fun req ->
      Sim.spawn sim (fun () ->
          started := (req.Openloop.req_id, Sim.now ()) :: !started;
          Sim.delay 250));
  Sim.run sim;
  Alcotest.(check (list (pair int int))) "each process starts at its arrival"
    [ (0, 100); (1, 200); (2, 300) ] (List.rev !started)

let test_utilization_formula () =
  Alcotest.(check (float 1e-9)) "rho" 0.5
    (Openloop.utilization ~rate_per_kcycle:1.0 ~mean_service:1000.0 ~servers:2.0)

(* --- arrival processes ---------------------------------------------------- *)

let gaps process seed n =
  let draw = Arrivals.sampler process (Rng.create seed) in
  List.init n (fun _ -> draw ())

let test_sampler_deterministic () =
  let procs =
    [
      ("poisson", Arrivals.poisson ~rate_per_kcycle:0.7);
      ("bursty", Arrivals.bursty ~rate_per_kcycle:0.7 ~amplitude:0.9 ~mean_dwell:5000.0);
      ("stationary uniform", Arrivals.Stationary (Dist.Uniform (10.0, 900.0)));
    ]
  in
  List.iter
    (fun (name, p) ->
      Alcotest.(check (list int))
        (name ^ ": same seed, same gaps") (gaps p 42L 2000) (gaps p 42L 2000);
      check_bool
        (name ^ ": different seeds diverge")
        true
        (gaps p 1L 100 <> gaps p 2L 100);
      check_bool (name ^ ": gaps >= 1") true
        (List.for_all (fun g -> g >= 1) (gaps p 9L 2000)))
    procs

let replay_arrivals process seed count =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let acc = ref [] in
  Openloop.run sim rng ~arrivals:process ~service:(Dist.Exponential 700.0)
    ~count
    ~sink:(fun req ->
      acc := (req.Openloop.arrival, req.Openloop.service_cycles) :: !acc);
  Sim.run sim;
  List.rev !acc

let test_poisson_stream_pinned () =
  (* The first requests of a seed-13 Poisson stream at 0.5/kcycle with
     Exponential 700 demands: one gap, then one demand, per request on
     one RNG stream.  Any change to the generator's draw order moves
     these numbers. *)
  Alcotest.(check (list (pair int int)))
    "seed 13, first five (arrival, demand)"
    [ (2928, 278); (4931, 241); (8322, 300); (10910, 349); (11385, 848) ]
    (replay_arrivals (Arrivals.poisson ~rate_per_kcycle:0.5) 13L 5)

let empirical_rate process n =
  let draw = Arrivals.sampler process (Rng.create 77L) in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + draw ()
  done;
  1000.0 *. float_of_int n /. float_of_int !total

let test_mean_rate_analytic () =
  Alcotest.(check (float 1e-9)) "poisson mean rate" 0.8
    (Arrivals.mean_rate_per_kcycle (Arrivals.poisson ~rate_per_kcycle:0.8));
  (* Equal dwells at (1±a)·r average back to r. *)
  Alcotest.(check (float 1e-6)) "bursty mean rate" 0.6
    (Arrivals.mean_rate_per_kcycle
       (Arrivals.bursty ~rate_per_kcycle:0.6 ~amplitude:0.9 ~mean_dwell:4000.0));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Arrivals.poisson: rate must be positive") (fun () ->
      ignore (Arrivals.poisson ~rate_per_kcycle:0.0))

let test_empirical_rate_matches_mean () =
  (* KS-style sanity on the first moment: the realized arrival rate of a
     long sample must sit within a few percent of the declared mean. *)
  List.iter
    (fun (name, p) ->
      let declared = Arrivals.mean_rate_per_kcycle p in
      let realized = empirical_rate p 60_000 in
      check_bool
        (Printf.sprintf "%s: realized %.4f vs declared %.4f" name realized
           declared)
        true
        (abs_float (realized -. declared) /. declared < 0.05))
    [
      ("poisson", Arrivals.poisson ~rate_per_kcycle:1.0);
      ("bursty", Arrivals.bursty ~rate_per_kcycle:0.5 ~amplitude:0.8 ~mean_dwell:2000.0);
      ( "mmpp-3state",
        Arrivals.Mmpp
          {
            rates = [| 0.2; 1.0; 2.0 |];
            mean_dwell = [| 3000.0; 1000.0; 500.0 |];
          } );
    ]

let test_replay_identical_across_jobs () =
  (* The bench harness fans experiments out over domains with
     [Parallel.map_ordered]; replaying the same seeds under -j 1 and
     -j 4 must produce byte-identical streams. *)
  let seeds = [| 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L |] in
  let replay seed =
    replay_arrivals
      (Arrivals.bursty ~rate_per_kcycle:0.9 ~amplitude:0.5 ~mean_dwell:3000.0)
      seed 300
  in
  let sequential = Parallel.map_ordered ~jobs:1 replay seeds in
  let parallel = Parallel.map_ordered ~jobs:4 replay seeds in
  Array.iteri
    (fun i s ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "seed %d identical under -j1/-j4" i)
        s parallel.(i))
    sequential

(* --- latency accounting --------------------------------------------------- *)

let test_latency_slo_boundary () =
  let lat = Latency.create ~slo:100 () in
  List.iter (Latency.record lat) [ 99; 100; 101; 250; 0 ];
  Alcotest.(check int) "count" 5 (Latency.count lat);
  (* Strictly-greater-than semantics: 100 meets a 100-cycle SLO. *)
  Alcotest.(check int) "misses" 2 (Latency.slo_miss lat);
  Alcotest.(check int) "met" 3 (Latency.met lat);
  let s = Latency.summarize lat ~elapsed:10_000 in
  Alcotest.(check int) "summary misses" 2 s.Latency.slo_miss;
  Alcotest.(check (float 1e-9)) "goodput = met per kcycle" 0.3
    s.Latency.goodput_per_kcycle;
  Alcotest.(check int) "max" 250 s.Latency.max_v

(* --- closed loop ---------------------------------------------------------- *)

(* A toy server that silently drops every [drop_every]-th request —
   completion then only comes from the client-side timeout. *)
let run_closedloop ?timeout ?(drop_every = 0) ~clients ~count seed =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let cl =
    Closedloop.start ?timeout ~slo:2_000 sim rng ~clients
      ~think:(Dist.Exponential 500.0) ~service:(Dist.Exponential 800.0) ~count
      ~submit:(fun req ~complete ->
        if drop_every > 0 && (req.Openloop.req_id + 1) mod drop_every = 0 then ()
        else
          Sim.fork (fun () ->
              Sim.delay (max 1 req.Openloop.service_cycles);
              complete ()))
  in
  Sim.run sim;
  cl

let test_closedloop_conservation () =
  let cl = run_closedloop ~clients:4 ~count:200 21L in
  Alcotest.(check int) "issued all" 200 (Closedloop.issued cl);
  Alcotest.(check int) "completed all" 200 (Closedloop.completed cl);
  Alcotest.(check int) "no timeouts" 0 (Closedloop.timed_out cl);
  Alcotest.(check int) "clean drain" 0 (Closedloop.in_flight cl);
  Alcotest.(check int) "latency per completion" 200
    (Latency.count (Closedloop.latency cl))

let test_closedloop_timeout_path () =
  let cl =
    run_closedloop ~timeout:5_000 ~drop_every:5 ~clients:3 ~count:150 8L
  in
  let issued = Closedloop.issued cl in
  let completed = Closedloop.completed cl in
  let timed_out = Closedloop.timed_out cl in
  Alcotest.(check int) "issued all" 150 issued;
  check_bool "dropped requests timed out" true (timed_out > 0);
  Alcotest.(check int) "issued = completed + timed_out" issued
    (completed + timed_out);
  Alcotest.(check int) "clean drain" 0 (Closedloop.in_flight cl);
  Alcotest.(check int) "latency counts completions only" completed
    (Latency.count (Closedloop.latency cl))

(* One client, no think time and a 1,000-cycle timeout: request 0 (at
   tick 0) completes only late, as [late] arranges, and request 1 takes
   100 cycles.  Returns the closed loop, the tick request 1 was submitted
   at, and the tick request 0's late completion ran at with whether
   request 1 had been submitted by then. *)
let late_completion_world late =
  let sim = Sim.create () in
  let next_submitted = ref (-1) and late_ran = ref (-1, false) in
  let complete_late complete () =
    late_ran := (Sim.now (), !next_submitted >= 0);
    complete ()
  in
  let cl =
    Closedloop.start ~timeout:1_000 sim (Rng.create 1L) ~clients:1
      ~think:(Dist.Constant 0.0) ~service:(Dist.Constant 100.0) ~count:2
      ~submit:(fun req ~complete ->
        if req.Openloop.req_id = 1 then begin
          next_submitted := Sim.now ();
          Sim.after 100 complete
        end
        else late ~next_submitted (complete_late complete))
  in
  Sim.run sim;
  (cl, !next_submitted, !late_ran)

(* The timeout's give-up is an event at the submit's tick that schedules
   the give-up 1,000 cycles later.  [at_give_up] lands the completion
   right behind the give-up, before the client runs again; [after_next]
   polls at the give-up's tick until the client has submitted request 1
   there; [in_flight] arrives while request 1 is in flight. *)
let at_give_up ~next_submitted:_ complete =
  Sim.after 0 (fun () -> Sim.after 0 (fun () -> Sim.after 1_000 complete))

let after_next ~next_submitted complete =
  let rec poll () = if !next_submitted >= 0 then complete () else Sim.after 0 poll in
  Sim.after 1_000 poll

let in_flight ~next_submitted:_ complete = Sim.after 1_050 complete

(* A completion that loses to its timeout counts for nothing: the
   request stays timed out, and the next request completes only on its
   own completion, 100 cycles after its submit. *)
let test_closedloop_late_completion () =
  List.iter
    (fun (name, late, late_ran_at) ->
      let cl, next_submitted, late_ran = late_completion_world late in
      let lat = Latency.summarize (Closedloop.latency cl) ~elapsed:1 in
      Alcotest.(check int) (name ^ ": next request at the give-up's tick") 1_000 next_submitted;
      Alcotest.(check (pair int bool))
        (name ^ ": late completion's tick, next request submitted")
        late_ran_at late_ran;
      Alcotest.(check int) (name ^ ": issued") 2 (Closedloop.issued cl);
      Alcotest.(check int) (name ^ ": timed out") 1 (Closedloop.timed_out cl);
      Alcotest.(check int) (name ^ ": completed") 1 (Closedloop.completed cl);
      Alcotest.(check int) (name ^ ": clean drain") 0 (Closedloop.in_flight cl);
      Alcotest.(check int) (name ^ ": next request's sojourn") 100 lat.Latency.max_v)
    [
      ("at the give-up", at_give_up, (1_000, false));
      ("after the next submit", after_next, (1_000, true));
      ("while the next is in flight", in_flight, (1_050, true));
    ]

let test_closedloop_deterministic () =
  let fingerprint cl =
    ( Closedloop.issued cl,
      Closedloop.completed cl,
      Closedloop.timed_out cl,
      Latency.slo_miss (Closedloop.latency cl) )
  in
  let a = run_closedloop ~timeout:4_000 ~drop_every:7 ~clients:5 ~count:120 33L in
  let b = run_closedloop ~timeout:4_000 ~drop_every:7 ~clients:5 ~count:120 33L in
  check_bool "same seed, same outcome" true (fingerprint a = fingerprint b)

let () =
  Alcotest.run "workload"
    [
      ( "openloop",
        [
          Alcotest.test_case "exact count" `Quick test_emits_exactly_count;
          Alcotest.test_case "constant schedule" `Quick test_constant_interarrival_schedule;
          Alcotest.test_case "monotone arrivals" `Quick test_arrivals_monotone_and_open_loop;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate_roughly_matches;
          Alcotest.test_case "service non-negative" `Quick test_service_never_negative;
          Alcotest.test_case "utilization" `Quick test_utilization_formula;
          Alcotest.test_case "sink cannot fork" `Quick test_sink_fork_raises;
          Alcotest.test_case "sink spawns at arrival" `Quick test_sink_spawn_starts_at_arrival;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "poisson stream pinned" `Quick
            test_poisson_stream_pinned;
          Alcotest.test_case "mean rate analytic" `Quick test_mean_rate_analytic;
          Alcotest.test_case "empirical rate matches" `Quick
            test_empirical_rate_matches_mean;
          Alcotest.test_case "identical under -j1/-j4" `Quick
            test_replay_identical_across_jobs;
        ] );
      ( "latency",
        [ Alcotest.test_case "slo boundary" `Quick test_latency_slo_boundary ] );
      ( "closedloop",
        [
          Alcotest.test_case "conservation" `Quick test_closedloop_conservation;
          Alcotest.test_case "timeout path" `Quick test_closedloop_timeout_path;
          Alcotest.test_case "deterministic" `Quick test_closedloop_deterministic;
          Alcotest.test_case "late completion" `Quick test_closedloop_late_completion;
        ] );
    ]
