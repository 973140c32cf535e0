(* E1 — "No More Interrupts": event-to-thread wakeup latency.

   Part A: APIC timer ticks wake the kernel scheduler thread — the
   paper's opening example — via (i) monitor/mwait on the tick counter
   and (ii) a legacy timer IRQ + scheduler wakeup.

   Part B: single NIC packet wakeup at very low load, adding the polling
   design for reference.

   Expected shape: mwait wake ≈ tens of cycles (monitor match + pipeline
   restart); the interrupt path ≥ 10x that (IRQ entry + scheduler +
   context switch + exit). *)

module Params = Switchless.Params
module Io_path = Sl_os.Io_path
module Arrivals = Sl_workload.Arrivals
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

let latency_row name h =
  [
    Tablefmt.String name;
    Tablefmt.Int (Histogram.count h);
    Tablefmt.Int (Histogram.quantile h 0.5);
    Tablefmt.Int (Histogram.quantile h 0.99);
    Tablefmt.Int (Histogram.max_value h);
    Tablefmt.Float (Params.cycles_to_ns p (Histogram.quantile h 0.5));
  ]

let run b =
  let ticks = 2000 and period = 50_000 in
  let mwait = Io_path.timer_wakeup_mwait p ~ticks ~period in
  let irq = Io_path.timer_wakeup_interrupt p ~ticks ~period in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E1a: timer-tick wakeup latency (cycles)"
       ~header:[ "design"; "events"; "p50"; "p99"; "max"; "p50 ns @3GHz" ]
       [ latency_row "mwait hw thread" mwait; latency_row "timer IRQ + sched" irq ]);
  let cfg =
    {
      Io_path.default_config with
      Io_path.count = 1000;
      (* one packet per 50k cycles: pure latency *)
      arrivals = Arrivals.poisson ~rate_per_kcycle:0.02;
      service = Sl_util.Dist.Constant 10.0;
    }
  in
  let latencies design = (Io_path.run design cfg).Io_path.io.Io_path.latencies in
  let m = latencies Io_path.Mwait in
  let poll = latencies Io_path.Polling in
  let intr = latencies Io_path.Irq in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E1b: NIC single-packet wakeup at ~0 load (cycles)"
       ~header:[ "design"; "events"; "p50"; "p99"; "max"; "p50 ns @3GHz" ]
       [
         latency_row "mwait hw thread" m;
         latency_row "polling core" poll;
         latency_row "NIC IRQ + sched" intr;
       ]);
  Printf.bprintf b
    "mwait p50 / irq p50 = %.1fx improvement (paper predicts >= 10x)\n\n"
    (float_of_int (Histogram.quantile irq 0.5)
    /. float_of_int (Histogram.quantile mwait 0.5))
