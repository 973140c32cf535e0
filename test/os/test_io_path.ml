(* Tests for the I/O delivery designs and the timer-wakeup microbenches. *)

module Params = Switchless.Params
module Histogram = Sl_util.Histogram
module Io_path = Sl_os.Io_path
module Arrivals = Sl_workload.Arrivals

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

let small_cfg = { Io_path.default_config with Io_path.count = 300 }

let at_rate cfg rate = { cfg with Io_path.arrivals = Arrivals.poisson ~rate_per_kcycle:rate }
let serve ?background design cfg = (Io_path.run ?background design cfg).Io_path.io

let test_mwait_processes_everything () =
  let s = serve Io_path.Mwait small_cfg in
  check_int "all packets" 300 s.Io_path.processed;
  check_int "no drops" 0 s.Io_path.dropped;
  check_bool "near-zero waste" true (Io_path.wasted_fraction s < 0.15)

let test_polling_processes_everything_but_burns () =
  let s = serve Io_path.Polling small_cfg in
  check_int "all packets" 300 s.Io_path.processed;
  (* At ~25% load, a poller burns most of its cycles spinning. *)
  check_bool "heavy poll waste" true (Io_path.wasted_fraction s > 0.5);
  check_bool "poll cycles dominate waste" true (s.Io_path.poll_cycles > s.Io_path.overhead_cycles)

let test_interrupt_processes_everything () =
  let s = serve Io_path.Irq small_cfg in
  check_int "all packets" 300 s.Io_path.processed;
  check_bool "irq overhead visible" true (s.Io_path.overhead_cycles > 0.0)

let test_latency_ranking_at_low_load () =
  let cfg = at_rate { small_cfg with Io_path.count = 200 } 0.05 in
  let m = serve Io_path.Mwait cfg in
  let poll = serve Io_path.Polling cfg in
  let irq = serve Io_path.Irq cfg in
  let p99 h = (Histogram.quantile h 0.99) in
  (* The paper's claim: mwait ≈ polling latency, both far below IRQ. *)
  check_bool
    (Printf.sprintf "mwait (%d) within 2x of polling (%d)" (p99 m.Io_path.latencies)
       (p99 poll.Io_path.latencies))
    true
    (p99 m.Io_path.latencies <= 2 * p99 poll.Io_path.latencies + 100);
  check_bool
    (Printf.sprintf "irq (%d) at least 3x mwait (%d)" (p99 irq.Io_path.latencies)
       (p99 m.Io_path.latencies))
    true
    (p99 irq.Io_path.latencies > 3 * p99 m.Io_path.latencies)

let test_background_work_coexists_with_mwait () =
  let cfg = { small_cfg with Io_path.count = 200 } in
  let s = serve ~background:true Io_path.Mwait cfg in
  check_int "packets still served" 200 s.Io_path.processed;
  check_bool "background got cycles" true (s.Io_path.background_cycles > 0.0)

let test_deterministic_runs () =
  let a = serve Io_path.Mwait small_cfg and b = serve Io_path.Mwait small_cfg in
  Alcotest.(check int) "same elapsed" a.Io_path.elapsed_cycles b.Io_path.elapsed_cycles;
  Alcotest.(check int) "same p99"
    (Histogram.quantile a.Io_path.latencies 0.99)
    (Histogram.quantile b.Io_path.latencies 0.99)

let test_napi_reduces_waste () =
  let cfg = at_rate { small_cfg with Io_path.count = 600 } 1.2 in
  let plain = serve Io_path.Irq cfg in
  let napi = serve Io_path.Napi cfg in
  check_int "napi processes all" 600 napi.Io_path.processed;
  check_bool
    (Printf.sprintf "napi waste %.2f < plain %.2f" (Io_path.wasted_fraction napi)
       (Io_path.wasted_fraction plain))
    true
    (Io_path.wasted_fraction napi < Io_path.wasted_fraction plain)

let test_napi_latency_floor_remains () =
  let cfg = at_rate { small_cfg with Io_path.count = 200 } 0.05 in
  let napi = serve Io_path.Napi cfg in
  (* At low load every packet is "first of its burst": full IRQ path. *)
  check_bool "floor above 1500 cycles" true
    ((Histogram.quantile napi.Io_path.latencies 0.5) > 1500)

(* One hardirq per packet serializes entry + scheduler + exit on the IRQ
   context, which caps delivery near 1000 / (600 + 1200 + 400) = 0.45
   pkts/kcycle: past it the backlog grows without bound, while NAPI
   drains whole bursts per interrupt and stays flat. *)
let test_irq_delivery_cap () =
  let cfg = { Io_path.default_config with Io_path.count = 600 } in
  let p99 design rate =
    Histogram.quantile (serve design (at_rate cfg rate)).Io_path.latencies 0.99
  in
  let past_cap = p99 Io_path.Irq 0.8 in
  check_bool (Printf.sprintf "irq p99 %d past the cap > 100000" past_cap) true
    (past_cap > 100_000);
  let napi = p99 Io_path.Napi 0.8 in
  check_bool (Printf.sprintf "napi p99 %d at the same load < 10000" napi) true
    (napi < 10_000);
  let below_cap = p99 Io_path.Irq 0.3 in
  check_bool (Printf.sprintf "irq p99 %d below the cap < 20000" below_cap) true
    (below_cap < 20_000)

let test_rss_scales_past_single_thread () =
  let cfg = at_rate { small_cfg with Io_path.count = 800 } 2.8 in
  let rss = serve (Io_path.Rss 4) cfg in
  check_int "rss processes all" 800 rss.Io_path.processed;
  check_int "no drops" 0 rss.Io_path.dropped;
  (* 2.8 pkts/kcycle is past one thread's 2.0 service limit; four queue
     threads keep p99 bounded. *)
  check_bool "p99 stays bounded" true
    ((Histogram.quantile rss.Io_path.latencies 0.99) < 20_000)

let test_rss_single_queue_equals_mwait () =
  let cfg = { small_cfg with Io_path.count = 300 } in
  let single = serve Io_path.Mwait cfg in
  let rss1 = serve (Io_path.Rss 1) cfg in
  Alcotest.(check int) "same p99"
    (Histogram.quantile single.Io_path.latencies 0.99)
    (Histogram.quantile rss1.Io_path.latencies 0.99)

let test_timer_wakeup_latencies () =
  let m = Io_path.timer_wakeup_mwait p ~ticks:100 ~period:10_000 in
  let i = Io_path.timer_wakeup_interrupt p ~ticks:100 ~period:10_000 in
  check_int "all ticks (mwait)" 100 (Histogram.count m);
  check_int "all ticks (irq)" 100 (Histogram.count i);
  (* mwait: match(6) + pipeline(20) = 26 (plus occasional state transfer). *)
  let m99 = (Histogram.quantile m 0.99) in
  let i99 = (Histogram.quantile i 0.99) in
  check_bool (Printf.sprintf "mwait wake %d < 60" m99) true (m99 < 60);
  check_bool
    (Printf.sprintf "irq wake %d at least 10x mwait %d" i99 m99)
    true
    (i99 > 10 * m99);
  (* IRQ entry + one scheduler decision + exit + the thread's switch back:
     charging the scheduler twice, or not at all, moves both. *)
  check_int "irq p50" 1807 (Histogram.quantile i 0.5);
  check_int "irq max" 5285 (Histogram.max_value i)

(* Zero ticks used to return two empty histograms ("n=0 mean=0.0 ..."). *)
let test_timer_wakeup_needs_a_tick () =
  Alcotest.check_raises "mwait"
    (Invalid_argument "Io_path.timer_wakeup_mwait: ticks must be at least 1") (fun () ->
      ignore (Io_path.timer_wakeup_mwait p ~ticks:0 ~period:10_000 : Histogram.t));
  Alcotest.check_raises "interrupt"
    (Invalid_argument "Io_path.timer_wakeup_interrupt: ticks must be at least 1")
    (fun () -> ignore (Io_path.timer_wakeup_interrupt p ~ticks:0 ~period:10_000 : Histogram.t))

(* A run of no request has nothing to measure: refused, not shown as
   "served 0 ... waste 100.0%". *)
let test_count_below_one_refused () =
  List.iter
    (fun count ->
      List.iter
        (fun design ->
          Alcotest.check_raises (Printf.sprintf "count %d" count)
            (Invalid_argument "Io_path.run: count must be at least 1") (fun () ->
              ignore (Io_path.run design { small_cfg with Io_path.count } : Io_path.result)))
        Io_path.[ Mwait; Polling; Irq; Napi; Flexsc ])
    [ 0; -5 ]

let () =
  Alcotest.run "io_path"
    [
      ( "designs",
        [
          Alcotest.test_case "mwait completes" `Quick test_mwait_processes_everything;
          Alcotest.test_case "polling burns cycles" `Quick
            test_polling_processes_everything_but_burns;
          Alcotest.test_case "interrupt completes" `Quick test_interrupt_processes_everything;
          Alcotest.test_case "latency ranking" `Quick test_latency_ranking_at_low_load;
          Alcotest.test_case "background coexists" `Quick
            test_background_work_coexists_with_mwait;
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "napi reduces waste" `Quick test_napi_reduces_waste;
          Alcotest.test_case "napi latency floor" `Quick test_napi_latency_floor_remains;
          Alcotest.test_case "irq delivery cap" `Quick test_irq_delivery_cap;
          Alcotest.test_case "rss scales" `Quick test_rss_scales_past_single_thread;
          Alcotest.test_case "rss(1) == mwait" `Quick test_rss_single_queue_equals_mwait;
          Alcotest.test_case "count below 1 refused" `Quick test_count_below_one_refused;
        ] );
      ( "timer",
        [
          Alcotest.test_case "tick wakeup latencies" `Quick test_timer_wakeup_latencies;
          Alcotest.test_case "zero ticks rejected" `Quick test_timer_wakeup_needs_a_tick;
        ] );
    ]
