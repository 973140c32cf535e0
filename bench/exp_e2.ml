(* E2 — "Fast I/O without Inefficient Polling": load sweep.

   Offered load rises from ~2% to ~80% of one pipeline's capacity
   (500-cycle packets).  For mwait, polling, the per-packet interrupt
   and its NAPI-coalesced variant we report p50/p99 latency and the
   fraction of consumed cycles that were pure waste (spinning or
   mechanism overhead).

   Expected shape: mwait tracks polling's latency curve within a small
   additive constant across the sweep, while its waste stays near zero;
   polling's waste falls from ~100% toward the load level; the interrupt
   design pays a latency floor of the IRQ path at every load and
   saturates at its hardirq's delivery cap (~0.45 pkts/kcycle), while
   NAPI keeps up but keeps the floor. *)

module Io_path = Sl_os.Io_path
module Arrivals = Sl_workload.Arrivals
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let rates = [ 0.05; 0.2; 0.4; 0.8; 1.2; 1.6 ]

(* E2d: beyond one thread's service capacity (work 500 => 2 pkts/kcycle
   per thread), RSS steering to per-queue hardware threads scales to the
   core's full SMT width with no software dispatcher. *)
let rss_rates = [ 1.0; 1.6; 2.4; 3.2 ]

(* 2000 packets of 500 cycles at [rate] per kcycle through [design]. *)
let point design rate =
  let arrivals = Arrivals.poisson ~rate_per_kcycle:rate in
  (Io_path.run design { Io_path.default_config with Io_path.count = 2000; arrivals })
    .Io_path.io

let rss_sweep () =
  List.map
    (fun rate ->
      let single = point Io_path.Mwait rate in
      let rss = point (Io_path.Rss 4) rate in
      let p99 (s : Io_path.stats) =
        float_of_int (Histogram.quantile s.Io_path.latencies 0.99)
      in
      let tput (s : Io_path.stats) =
        1000.0 *. float_of_int s.Io_path.processed
        /. float_of_int s.Io_path.elapsed_cycles
      in
      (rate, [ p99 single; p99 rss; tput single; tput rss ]))
    rss_rates

let run b =
  let sweep =
    List.map
      (fun rate ->
        ( rate,
          point Io_path.Mwait rate,
          point Io_path.Polling rate,
          point Io_path.Irq rate,
          point Io_path.Napi rate ))
      rates
  in
  let p99 (s : Io_path.stats) = float_of_int (Histogram.quantile s.Io_path.latencies 0.99) in
  let p50 (s : Io_path.stats) = float_of_int (Histogram.quantile s.Io_path.latencies 0.5) in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series ~title:"E2a: p50 latency (cycles) vs offered load"
       ~x_label:"pkts/kcycle"
       ~columns:[ "mwait"; "polling"; "interrupt"; "irq+NAPI" ]
       (List.map (fun (r, m, p, i, n) -> (r, [ p50 m; p50 p; p50 i; p50 n ])) sweep));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series ~title:"E2b: p99 latency (cycles) vs offered load"
       ~x_label:"pkts/kcycle"
       ~columns:[ "mwait"; "polling"; "interrupt"; "irq+NAPI" ]
       (List.map (fun (r, m, p, i, n) -> (r, [ p99 m; p99 p; p99 i; p99 n ])) sweep));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series ~title:"E2c: wasted-cycle fraction (%) vs offered load"
       ~x_label:"pkts/kcycle"
       ~columns:[ "mwait"; "polling"; "interrupt"; "irq+NAPI" ]
       (List.map
          (fun (r, m, p, i, n) ->
            ( r,
              [
                100.0 *. Io_path.wasted_fraction m;
                100.0 *. Io_path.wasted_fraction p;
                100.0 *. Io_path.wasted_fraction i;
                100.0 *. Io_path.wasted_fraction n;
              ] ))
          sweep));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         "E2d: smartNIC steering (4 RX queues, 1 hw thread each) vs single thread"
       ~x_label:"pkts/kcycle"
       ~columns:[ "1q p99"; "4q p99"; "1q tput/kcyc"; "4q tput/kcyc" ]
       (rss_sweep ()))
