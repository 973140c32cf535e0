(* A multi-tenant key-value store on hardware threads.

   Capstone demo combining the pieces: requests from two tenants are
   steered by the hardware dispatch unit (§4, Carbon-style) to a pool of
   worker hardware threads parked in mwait; workers share the pipeline
   processor-sharing style; and §4's per-thread resource accounting
   produces the cloud bill at the end.  No interrupts, no software
   scheduler, no polling.

   Run with: dune exec examples/kv_store.exe *)

module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core
module Hw_dispatch = Switchless.Hw_dispatch
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals

type op = Get | Put

type request = { tenant : int; op : op; key : int; arrival : int }

let () =
  let params = Params.default in
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:1 in
  let store : (int, int64) Hashtbl.t = Hashtbl.create 1024 in
  let dispatch = Hw_dispatch.create chip ~core:0 ~policy:Hw_dispatch.Lifo () in

  (* Request table: the dispatch payload indexes into it. *)
  let requests : (int, request) Hashtbl.t = Hashtbl.create 1024 in
  let next_req = ref 0 in

  let tenants = 2 in
  let per_tenant_cycles = Array.make tenants 0.0 in
  let per_tenant_lat = Array.init tenants (fun _ -> Histogram.create ()) in
  let get_cycles = 300 and put_cycles = 600 in

  (* Worker pool. *)
  let workers = 32 in
  for i = 1 to workers do
    let th = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
    Chip.attach th (fun th ->
        Hw_dispatch.worker_loop dispatch th (fun payload ->
            let req = Hashtbl.find requests (Int64.to_int payload) in
            let cost =
              match req.op with
              | Get ->
                ignore (Hashtbl.find_opt store req.key);
                get_cycles
              | Put ->
                Hashtbl.replace store req.key payload;
                put_cycles
            in
            Isa.exec th cost;
            per_tenant_cycles.(req.tenant) <-
              per_tenant_cycles.(req.tenant) +. float_of_int cost;
            Histogram.record per_tenant_lat.(req.tenant)
              (Sim.now () - req.arrival)));
    Chip.boot th
  done;

  (* Two tenants with different mixes and rates. *)
  let rng = Sl_util.Rng.create 77L in
  let submit ~tenant ~op ~key =
    let id = !next_req in
    incr next_req;
    Hashtbl.replace requests id { tenant; op; key; arrival = Sim.now () };
    Hw_dispatch.submit dispatch (Int64.of_int id)
  in
  let tenant_gen ~tenant ~rate ~count ~put_ratio =
    let trng = Sl_util.Rng.split rng in
    Openloop.run sim trng
      ~arrivals:(Arrivals.poisson ~rate_per_kcycle:rate)
      ~service:(Sl_util.Dist.Constant 0.0) ~count
      ~sink:(fun _ ->
        let op = if Sl_util.Rng.float trng < put_ratio then Put else Get in
        submit ~tenant ~op ~key:(Sl_util.Rng.int trng 512))
  in
  tenant_gen ~tenant:0 ~rate:1.5 ~count:3000 ~put_ratio:0.1;  (* read-mostly *)
  tenant_gen ~tenant:1 ~rate:0.5 ~count:1000 ~put_ratio:0.9;  (* write-heavy *)
  Sim.run sim;

  print_endline "multi-tenant KV store on hardware threads (32-worker pool)";
  let rows =
    List.init tenants (fun t ->
        [
          Tablefmt.String (Printf.sprintf "tenant %d" t);
          Tablefmt.Int (Histogram.count per_tenant_lat.(t));
          Tablefmt.Int (Histogram.quantile per_tenant_lat.(t) 0.5);
          Tablefmt.Int (Histogram.quantile per_tenant_lat.(t) 0.99);
          Tablefmt.Float (per_tenant_cycles.(t) /. 1000.0);
        ])
  in
  print_endline
    (Tablefmt.render ~title:"per-tenant service and bill"
       ~header:[ "tenant"; "requests"; "p50 (cyc)"; "p99 (cyc)"; "billed kcycles" ]
       rows);
  (* The hardware's own per-thread meters (§4 billing support). *)
  let core = Chip.exec_core chip 0 in
  let top_workers =
    Smt_core.billed_threads core
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> fun l -> List.filteri (fun i _ -> i < 3) l
  in
  print_endline "hardware per-thread meters (top 3 workers):";
  List.iter
    (fun (ptid, cycles) -> Printf.printf "  worker ptid %2d: %.0f cycles\n" ptid cycles)
    top_workers;
  Printf.printf "store size: %d keys | dispatches: %d | chip wakeups: %d\n"
    (Hashtbl.length store) (Hw_dispatch.dispatched dispatch)
    (Chip.stats chip).Chip.total_wakeups
