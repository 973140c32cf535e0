(* NIC wakeup, three ways (§2 "Fast I/O without Inefficient Polling").

   The same Poisson packet stream is served by an interrupt-driven
   kernel, a busy-polling core, and an mwait-parked hardware thread.
   The table shows the paper's predicted shape: mwait gets polling-class
   latency at interrupt-class efficiency.

   Run with: dune exec examples/nic_wakeup.exe *)

module Io_path = Sl_os.Io_path
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let () =
  let cfg =
    {
      Io_path.default_config with
      Io_path.count = 3000;
      arrivals = Sl_workload.Arrivals.poisson ~rate_per_kcycle:0.4;
    }
  in
  let serve design = (Io_path.run ~background:true design cfg).Io_path.io in
  let designs =
    [
      ("interrupt", serve Io_path.Irq);
      ("polling", serve Io_path.Polling);
      ("mwait (paper)", serve Io_path.Mwait);
    ]
  in
  let rows =
    List.map
      (fun (name, s) ->
        [
          Tablefmt.String name;
          Tablefmt.Int s.Io_path.processed;
          Tablefmt.Int (Histogram.quantile s.Io_path.latencies 0.5);
          Tablefmt.Int (Histogram.quantile s.Io_path.latencies 0.99);
          Tablefmt.Float (100.0 *. Io_path.wasted_fraction s);
          Tablefmt.Float (s.Io_path.background_cycles /. 1.0e6);
        ])
      designs
  in
  print_endline
    (Tablefmt.render
       ~title:"NIC RX path at ~20% load, 500-cycle packets, with background job"
       ~header:
         [ "design"; "packets"; "p50 (cyc)"; "p99 (cyc)"; "wasted %"; "bg Mcycles" ]
       rows);
  print_endline
    "Expected shape: mwait p99 within ~2x of polling; interrupt p99 >> both;\n\
     polling wastes most of a core while mwait waste is near zero."
