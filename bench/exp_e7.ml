(* E7 — "Simpler Distributed Programming" + §4 processor sharing:
   thread-per-request tail latency under service-time dispersion.

   Open-loop arrivals on a 2-core server, 2000-cycle mean service.  The
   service distribution is exponential (CV² = 1) or bimodal (CV² = 16 —
   2% of requests are ~57x longer).  Designs:

   - software FCFS: thread-per-request on the conventional scheduler,
     run-to-completion;
   - software RR: preemptive 5000-cycle quantum (pays switch costs);
   - hardware pool: thread-per-request on parked hardware threads,
     processor-sharing execution.

   Expected shape (Shinjuku / the paper's §4 claim): at CV² = 1 all
   designs are comparable; at CV² = 16 the FCFS p99 slowdown explodes
   with load while PS stays flat — short requests no longer wait behind
   long ones. *)

module Server = Sl_dist.Server
module Params = Switchless.Params
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let mean_service = 2000.0
let count = 2500
let rates = [ 0.2; 0.4; 0.8; 1.2 ]

let cfg ~rate ~service =
  {
    Server.params = p;
    seed = 21L;
    cores = 2;
    rate_per_kcycle = rate;
    service;
    count;
  }

let sweep ~service =
  List.map
    (fun rate ->
      let c = cfg ~rate ~service in
      let fcfs = Server.run_software c in
      let rr = Server.run_software ~quantum:5000 c in
      let hw = Server.run_hw_pool c in
      let p99 (s : Server.stats) = Server.percentile s.Server.slowdowns 0.99 in
      (rate, [ p99 fcfs; p99 rr; p99 hw ]))
    rates

let run b =
  let low_disp = Sl_util.Dist.Exponential mean_service in
  let high_disp = Sl_util.Dist.bimodal_with_cv2 ~mean:mean_service ~cv2:16.0 ~p_long:0.02 in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E7a: p99 slowdown vs load, CV^2 = 1 (exponential service)"
       ~x_label:"req/kcycle"
       ~columns:[ "sw FCFS"; "sw RR 5k"; "hw PS" ]
       (sweep ~service:low_disp));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E7b: p99 slowdown vs load, CV^2 = 16 (bimodal service)"
       ~x_label:"req/kcycle"
       ~columns:[ "sw FCFS"; "sw RR 5k"; "hw PS" ]
       (sweep ~service:high_disp));
  (* Dispersion axis: fixed moderate load, sweep CV². *)
  let cv2_sweep =
    List.map
      (fun cv2 ->
        let service =
          if cv2 <= 1.0 then Sl_util.Dist.Exponential mean_service
          else Sl_util.Dist.bimodal_with_cv2 ~mean:mean_service ~cv2 ~p_long:0.02
        in
        let c = cfg ~rate:0.8 ~service in
        let fcfs = Server.run_software c in
        let hw = Server.run_hw_pool c in
        let p99 (s : Server.stats) = Server.percentile s.Server.slowdowns 0.99 in
        (cv2, [ p99 fcfs; p99 hw ]))
      [ 1.0; 4.0; 16.0; 25.0 ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E7c: p99 slowdown vs service-time CV^2 (load 0.8 req/kcycle)"
       ~x_label:"CV^2"
       ~columns:[ "sw FCFS"; "hw PS" ]
       cv2_sweep);
  (* Context-switch tax of the software designs at the highest load. *)
  let c = cfg ~rate:1.2 ~service:high_disp in
  let fcfs = Server.run_software c in
  let rr = Server.run_software ~quantum:5000 c in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E7d: software switch overhead at req/kcycle = 1.2, CV^2 = 16"
       ~header:[ "design"; "switch Mcycles"; "per request" ]
       [
         [
           Tablefmt.String "sw FCFS";
           Tablefmt.Float (fcfs.Server.switch_overhead_cycles /. 1.0e6);
           Tablefmt.Float (fcfs.Server.switch_overhead_cycles /. float_of_int count);
         ];
         [
           Tablefmt.String "sw RR 5k";
           Tablefmt.Float (rr.Server.switch_overhead_cycles /. 1.0e6);
           Tablefmt.Float (rr.Server.switch_overhead_cycles /. float_of_int count);
         ];
       ])
