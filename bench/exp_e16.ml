(* E16 — load sweep: tail latency and saturation knees, four delivery
   designs.

   The paper's §2 use cases are claims about tail latency under load, so
   this experiment does what the serving literature (Shinjuku, Shenango,
   ZygOS) does to a design: sweep offered load from 10% to 120% of
   capacity and find the knee — the lowest load at which p99 sojourn
   blows the SLO (10 µs = 30 000 cycles at 3 GHz).  Designs:

   - mwait: the paper's hardware thread parked on the RX tail;
   - polling: kernel-bypass spinning (same knee, 100% burn);
   - irq+sched: IRQ entry/handler/exit + scheduler wakeup on every
     doorbell — wakeups serialize behind the IRQ context, so the knee
     arrives at measurably lower load;
   - flexsc: exception-less batching — no per-request notification at
     all, but a batch window of added delay.

   Service demand is drawn per request: exponential (CV² = 1), bimodal
   (CV² = 16; the long mode alone is ≈ 37k cycles, so this sweep uses a
   50 µs SLO) and bounded-Pareto.  E16e adds arrival-side burstiness
   (2-state MMPP at a fixed mean rate); E16f closes the loop — a fixed
   client population against the hardware pool server, showing why
   closed-loop numbers hide the collapse the open-loop sweep exposes. *)

module Params = Switchless.Params
module Io_path = Sl_os.Io_path
module Server = Sl_dist.Server
module Arrivals = Sl_workload.Arrivals
module Latency = Sl_workload.Latency
module Dist = Sl_util.Dist
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let mean_service = 1400.0
let capacity_per_kcycle = 1000.0 /. mean_service
let slo = 30_000
let slo_heavy = 150_000
let count = 1500
let seed = 16L
let loads = [ 0.1; 0.25; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0; 1.1; 1.2 ]

let cfg ~arrivals ~service ~slo =
  { Io_path.params = p; seed; arrivals; service; count; slo }

let designs =
  [
    ("mwait", Io_path.run_load_mwait);
    ("polling", fun c -> Io_path.run_load_polling c);
    ("irq+sched", Io_path.run_load_interrupt);
    ("flexsc", fun c -> Io_path.run_load_flexsc c);
  ]

(* One sweep: per design, p99 sojourn at each offered load. *)
let sweep ~service ~slo =
  List.map
    (fun load ->
      let arrivals =
        Arrivals.poisson ~rate_per_kcycle:(load *. capacity_per_kcycle)
      in
      let c = cfg ~arrivals ~service ~slo in
      (load, List.map (fun (_, run) -> (run c).Io_path.lat) designs))
    loads

let p99_row summaries = List.map (fun s -> float_of_int s.Latency.p99) summaries

(* The knee: lowest swept load whose p99 exceeds the sweep's SLO. *)
let knee results ~slo design_idx =
  List.find_map
    (fun (load, summaries) ->
      let s = List.nth summaries design_idx in
      if s.Latency.p99 > slo then Some load else None)
    results

let knee_cell = function
  | Some load -> Tablefmt.String (Printf.sprintf "%.2f" load)
  | None -> Tablefmt.String ">1.20"

let run b =
  let exp_service = Dist.Exponential mean_service in
  let bimodal_service =
    Dist.bimodal_with_cv2 ~mean:mean_service ~cv2:16.0 ~p_long:0.02
  in
  let pareto_service = Dist.Pareto { scale = 840.0; shape = 2.5 } in
  let exp_results = sweep ~service:exp_service ~slo in
  let bimodal_results = sweep ~service:bimodal_service ~slo:slo_heavy in
  let pareto_results = sweep ~service:pareto_service ~slo in
  let columns = List.map fst designs in
  let series results =
    List.map (fun (load, summaries) -> (load, p99_row summaries)) results
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E16a: p99 sojourn (cycles) vs offered load, exponential service (mean 1400)"
       ~x_label:"load/capacity" ~columns (series exp_results));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E16b: p99 sojourn (cycles) vs offered load, bimodal service (CV^2 = 16)"
       ~x_label:"load/capacity" ~columns (series bimodal_results));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E16c: p99 sojourn (cycles) vs offered load, Pareto service (shape 2.5)"
       ~x_label:"load/capacity" ~columns (series pareto_results));
  (* The knee table: where each design stops meeting its SLO. *)
  let goodput_at_top design_idx =
    let _, summaries = List.nth exp_results (List.length exp_results - 1) in
    (List.nth summaries design_idx).Latency.goodput_per_kcycle
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E16d: saturation knee (lowest load with p99 > SLO; 30k cycles, bimodal 150k)"
       ~header:
         [ "design"; "knee exp"; "knee bimodal"; "knee pareto"; "goodput@1.2" ]
       (List.mapi
          (fun i (name, _) ->
            [
              Tablefmt.String name;
              knee_cell (knee exp_results ~slo i);
              knee_cell (knee bimodal_results ~slo:slo_heavy i);
              knee_cell (knee pareto_results ~slo i);
              Tablefmt.Float (goodput_at_top i);
            ])
          designs));
  (* Arrival-side burstiness: MMPP at a fixed mean load. *)
  let bursty_load = 0.6 in
  let bursty_sweep =
    List.map
      (fun amplitude ->
        let arrivals =
          if amplitude = 0.0 then
            Arrivals.poisson
              ~rate_per_kcycle:(bursty_load *. capacity_per_kcycle)
          else
            Arrivals.bursty
              ~rate_per_kcycle:(bursty_load *. capacity_per_kcycle)
              ~amplitude ~mean_dwell:200_000.0
        in
        let c = cfg ~arrivals ~service:exp_service ~slo in
        let mwait = (Io_path.run_load_mwait c).Io_path.lat in
        let irq = (Io_path.run_load_interrupt c).Io_path.lat in
        ( amplitude,
          [
            float_of_int mwait.Latency.p99;
            float_of_int irq.Latency.p99;
            float_of_int mwait.Latency.slo_miss;
            float_of_int irq.Latency.slo_miss;
          ] ))
      [ 0.0; 0.5; 0.9 ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         "E16e: burstiness (2-state MMPP, mean load 0.6): p99 and SLO misses"
       ~x_label:"amplitude"
       ~columns:[ "mwait p99"; "irq p99"; "mwait miss"; "irq miss" ]
       bursty_sweep);
  (* Closed loop: a client population cannot overload the server — it
     slows down instead.  Throughput saturates; p99 stays bounded. *)
  let closed_sweep =
    List.map
      (fun clients ->
        let r =
          Server.run_hw_pool_closed ~clients ~slo
            ~think:(Dist.Exponential 8000.0)
            {
              Server.params = p;
              seed;
              cores = 1;
              rate_per_kcycle = 0.0;
              service = exp_service;
              count;
            }
        in
        ( float_of_int clients,
          [
            float_of_int r.Server.lat.Latency.p99;
            float_of_int r.Server.finished
            *. 1000.0
            /. float_of_int r.Server.wall_cycles;
          ] ))
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         "E16f: closed loop (hw pool, think 8k): p99 stays bounded past capacity"
       ~x_label:"clients"
       ~columns:[ "p99 sojourn"; "throughput/kcycle" ]
       closed_sweep);
  (* The verdict the acceptance criteria ask for. *)
  let k_mwait = knee exp_results ~slo 0 in
  let k_irq = knee exp_results ~slo 2 in
  (match (k_mwait, k_irq) with
  | Some m, Some i ->
    Printf.bprintf b
      "E16 verdict: irq+sched p99 knee at %.2f of capacity vs mwait %.2f (factor %.2fx earlier)\n\n"
      i m (m /. i)
  | _ ->
    Printf.bprintf b "E16 verdict: no knee within the swept range (mwait %s, irq %s)\n\n"
      (match k_mwait with Some l -> Printf.sprintf "%.2f" l | None -> ">1.2")
      (match k_irq with Some l -> Printf.sprintf "%.2f" l | None -> ">1.2"))
