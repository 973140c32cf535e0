(* switchless-sim: command-line driver for the simulator.

   Subcommands expose the library-level experiment runners with tunable
   parameters, for interactive exploration beyond the fixed sweeps in
   bench/main.exe:

     switchless-sim params
     switchless-sim load --design napi --load 0.8 --dist constant --mean 500
     switchless-sim wakeup --ticks 1000 --period 10000
     switchless-sim syscall --design hw --work 500 --calls 1000
     switchless-sim server --design hw --rate 0.8 --cv2 16 --cores 2
     switchless-sim lock --kind mcs.mwait --contenders 64 --cs 100 *)

open Cmdliner

module Params = Switchless.Params
module Io_path = Sl_os.Io_path
module Server = Sl_dist.Server
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

(* --- shared options --- *)

let seed =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let count =
  Arg.(value & opt int 2000 & info [ "count" ] ~docv:"N" ~doc:"Events to simulate.")

let rate =
  Arg.(
    value
    & opt float 0.5
    & info [ "rate" ] ~docv:"R" ~doc:"Arrival rate in events per 1000 cycles.")

(* --- params --- *)

let params_cmd =
  let run () =
    let rows =
      [
        ("smt width", float_of_int p.Params.smt_width);
        ("pipeline start (cyc)", float_of_int p.Params.pipeline_start_cycles);
        ("GP context (B)", float_of_int p.Params.regstate_bytes_gp);
        ("vector context (B)", float_of_int p.Params.regstate_bytes_full);
        ("register file (KiB)", float_of_int (p.Params.rf_capacity_bytes / 1024));
        ("L2 transfer (cyc)", float_of_int p.Params.l2_transfer_cycles);
        ("L3 transfer (cyc)", float_of_int p.Params.l3_transfer_cycles);
        ("DRAM transfer (cyc)", float_of_int p.Params.dram_transfer_cycles);
        ("monitor wake (cyc)", float_of_int p.Params.monitor_wake_cycles);
        ("monitor table capacity", float_of_int p.Params.monitor_capacity_per_core);
        ("trap entry+exit (cyc)", float_of_int (p.Params.trap_entry_cycles + p.Params.trap_exit_cycles));
        ("trap pollution (cyc)", float_of_int p.Params.trap_pollution_cycles);
        ("interrupt entry+exit (cyc)", float_of_int (p.Params.interrupt_entry_cycles + p.Params.interrupt_exit_cycles));
        ("IPI (cyc)", float_of_int p.Params.ipi_cycles);
        ("sched decision (cyc)", float_of_int p.Params.sched_decision_cycles);
        ("cache warmup (cyc)", float_of_int p.Params.cache_warmup_cycles);
        ("vmexit entry+exit (cyc)", float_of_int (p.Params.vmexit_entry_cycles + p.Params.vmexit_exit_cycles));
      ]
    in
    print_endline
      (Tablefmt.render ~title:"cost model (see DESIGN.md for sources)"
         ~header:[ "parameter"; "value" ]
         (List.map (fun (k, v) -> [ Tablefmt.String k; Tablefmt.Float v ]) rows))
  in
  Cmd.v (Cmd.info "params" ~doc:"Print the cost model.") Term.(const run $ const ())

let work =
  Arg.(
    value
    & opt int 500
    & info [ "work" ] ~docv:"CYCLES" ~doc:"Per-event processing cycles.")

(* --- wakeup --- *)

let wakeup_cmd =
  let ticks =
    Arg.(value & opt int 1000 & info [ "ticks" ] ~docv:"N" ~doc:"Timer ticks.")
  in
  let period =
    Arg.(value & opt int 10_000 & info [ "period" ] ~docv:"CYCLES" ~doc:"Tick period.")
  in
  let run ticks period =
    let m = Io_path.timer_wakeup_mwait p ~ticks ~period in
    let i = Io_path.timer_wakeup_interrupt p ~ticks ~period in
    Printf.printf "mwait:     %s\n" (Format.asprintf "%a" Histogram.pp_summary m);
    Printf.printf "interrupt: %s\n" (Format.asprintf "%a" Histogram.pp_summary i)
  in
  Cmd.v
    (Cmd.info "wakeup" ~doc:"Timer-tick wakeup latency, mwait vs interrupt.")
    Term.(const run $ ticks $ period)

(* --- syscall --- *)

type sys_design = Trap | Flexsc | Hw

let syscall_cmd =
  let designs = [ ("trap", Trap); ("flexsc", Flexsc); ("hw", Hw) ] in
  let design =
    Arg.(
      value
      & opt (enum designs) Hw
      & info [ "design" ] ~docv:"DESIGN" ~doc:"One of trap, flexsc, hw.")
  in
  let calls =
    Arg.(value & opt int 1000 & info [ "calls" ] ~docv:"N" ~doc:"Calls to time.")
  in
  let run design work calls =
    let module Chip = Switchless.Chip in
    let module Syscall = Sl_os.Syscall in
    let module Hw_channel = Sl_os.Hw_channel in
    let module Round_trip = Sl_os.Round_trip in
    let per_call =
      match design with
      | Trap ->
        Round_trip.software p ~calls (fun _ _ app ->
            Syscall.Trap.call app p ~kernel_work:work)
      | Flexsc ->
        Round_trip.software p ~calls (fun sim _ ->
            let kernel_core = Switchless.Smt_core.create sim p ~core_id:50 in
            let fx = Syscall.Flexsc.create sim p ~kernel_core () in
            fun app -> Syscall.Flexsc.call fx app ~kernel_work:work)
      | Hw ->
        fst
          (Round_trip.hardware p ~calls (fun chip ->
               let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
               let app =
                 Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Switchless.Ptid.Supervisor ()
               in
               (app, fun th -> Hw_channel.call sys ~client:th ~work ())))
    in
    Printf.printf "%.1f cycles/call (%.1f mechanism tax)\n" per_call
      (per_call -. float_of_int work)
  in
  Cmd.v
    (Cmd.info "syscall" ~doc:"Cycles per system call under one design.")
    Term.(const run $ design $ work $ calls)

(* --- server --- *)

type srv_design = Sw | Sw_rr | Hwpool

let server_cmd =
  let designs = [ ("sw", Sw); ("sw-rr", Sw_rr); ("hw", Hwpool) ] in
  let design =
    Arg.(
      value
      & opt (enum designs) Hwpool
      & info [ "design" ] ~docv:"DESIGN" ~doc:"One of sw, sw-rr, hw.")
  in
  let cores =
    Arg.(value & opt int 2 & info [ "cores" ] ~docv:"N" ~doc:"Server cores.")
  in
  let cv2 =
    Arg.(
      value
      & opt float 1.0
      & info [ "cv2" ] ~docv:"CV2"
          ~doc:
            "Service-time squared coef. of variation: exponential at 1, bimodal \
             otherwise.")
  in
  let mean =
    Arg.(
      value & opt float 2000.0 & info [ "mean" ] ~docv:"CYCLES" ~doc:"Mean service time.")
  in
  let run design seed rate count cores cv2 mean =
    let service =
      if cv2 = 1.0 then Sl_util.Dist.Exponential mean
      else Sl_util.Dist.bimodal_with_cv2 ~mean ~cv2 ~p_long:0.02
    in
    let cfg = { Server.params = p; seed; cores; rate_per_kcycle = rate; service; count } in
    let stats =
      match design with
      | Sw -> Server.run_software cfg
      | Sw_rr -> Server.run_software ~quantum:5000 cfg
      | Hwpool -> Server.run_hw_pool cfg
    in
    Printf.printf "completed %d in %d cycles\n" stats.Server.completed
      stats.Server.elapsed_cycles;
    Printf.printf "latency: %s\n"
      (Format.asprintf "%a" Histogram.pp_summary stats.Server.latencies);
    Printf.printf "slowdown: p50 %.2f | p99 %.2f | p999 %.2f\n"
      (Server.percentile stats.Server.slowdowns 0.5)
      (Server.percentile stats.Server.slowdowns 0.99)
      (Server.percentile stats.Server.slowdowns 0.999);
    if stats.Server.switch_overhead_cycles > 0.0 then
      Printf.printf "context-switch overhead: %.0f cycles total\n"
        stats.Server.switch_overhead_cycles
  in
  Cmd.v
    (Cmd.info "server" ~doc:"Thread-per-request server tail latency.")
    Term.(const run $ design $ seed $ rate $ count $ cores $ cv2 $ mean)

(* --- lock --- *)

let lock_cmd =
  let module Lock = Sl_sync.Lock in
  let module Contention = Sl_os.Contention in
  let kinds = List.map (fun k -> (Lock.kind_name k, k)) Lock.all_kinds in
  let kind =
    Arg.(
      value
      & opt (enum kinds) Lock.Park_mwait
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            (Printf.sprintf "Lock algorithm: one of %s."
               (String.concat ", " (List.map fst kinds))))
  in
  let contenders =
    Arg.(
      value & opt int 16
      & info [ "contenders" ] ~docv:"N" ~doc:"Threads contending for the lock.")
  in
  let cs =
    Arg.(
      value & opt int 400
      & info [ "cs" ] ~docv:"CYCLES" ~doc:"Critical-section length in cycles.")
  in
  let total =
    Arg.(
      value & opt int 2000
      & info [ "total" ] ~docv:"N" ~doc:"Total critical sections to run.")
  in
  let placement =
    Arg.(
      value
      & opt (enum [ ("hot", Contention.Hot); ("rr", Contention.Rr) ]) Contention.Rr
      & info [ "placement" ] ~docv:"P"
          ~doc:"Thread placement: hot (all on core 0) or rr (round-robin).")
  in
  let patience =
    Arg.(
      value
      & opt (some int) None
      & info [ "patience" ] ~docv:"CYCLES"
          ~doc:"Bound each mwait park with a retry deadline (default: park forever).")
  in
  let run kind n cs total placement patience =
    let r =
      Contention.run ?patience ~cores:4 ~placement ~threads:n ~quota:(Shared total)
        ~section:(Exec cs) ~gap:0 kind
    in
    let st = r.Contention.stats in
    let burn = r.Contention.useful +. r.Contention.poll +. r.Contention.overhead in
    Printf.printf "%s: %d critical sections over %d contenders in %d cycles (%.0f cycles/acquire)\n"
      (Lock.kind_name kind) r.Contention.sections n r.Contention.elapsed
      (float_of_int r.Contention.elapsed /. float_of_int (max 1 r.Contention.sections));
    Printf.printf "handoff (release->grant): %s\n"
      (Format.asprintf "%a" Histogram.pp_summary st.Lock.handoff);
    Printf.printf "contended %d/%d | parks %d | wakes %d\n" st.Lock.contended
      st.Lock.acquires st.Lock.parks st.Lock.wakes;
    Printf.printf "poll fraction %.3f of %.0f executed cycles\n"
      (if burn <= 0.0 then 0.0 else r.Contention.poll /. burn)
      burn;
    Printf.printf "fairness: acquires max-min spread %d | mean FIFO distance %.2f\n"
      (st.Lock.max_count - st.Lock.min_count)
      st.Lock.fifo_distance_mean
  in
  Cmd.v
    (Cmd.info "lock"
       ~doc:
         "One E-LOCK contention point: a lock algorithm under N contenders \
          with a fixed critical section.")
    Term.(const run $ kind $ contenders $ cs $ total $ placement $ patience)

(* --- load --- *)

let load_cmd =
  let module Arrivals = Sl_workload.Arrivals in
  let module Latency = Sl_workload.Latency in
  let designs =
    [
      ("mwait", Io_path.Mwait);
      ("mwait-hardened", Io_path.Mwait_hardened { watchdog = false; horizon = None });
      ("rss", Io_path.Rss 4);
      ("polling", Io_path.Polling);
      ("irq", Io_path.Irq);
      ("napi", Io_path.Napi);
      ("flexsc", Io_path.Flexsc);
    ]
  in
  let design =
    Arg.(
      value
      & opt (enum designs) Io_path.Mwait
      & info [ "design" ] ~docv:"DESIGN"
          ~doc:
            (Printf.sprintf "I/O delivery design (rss steers over 4 RX queues): one of %s."
               (String.concat ", " (List.map fst designs))))
  in
  let background =
    Arg.(value & flag & info [ "background" ] ~doc:"Run a best-effort batch job alongside.")
  in
  let dists = [ ("exp", `Exp); ("bimodal", `Bimodal); ("pareto", `Pareto); ("constant", `Constant) ] in
  let dist =
    Arg.(
      value
      & opt (enum dists) `Exp
      & info [ "dist" ] ~docv:"DIST" ~doc:"Service distribution: exp, bimodal, pareto, constant.")
  in
  let mean =
    Arg.(
      value & opt float 1400.0
      & info [ "mean" ] ~docv:"CYCLES" ~doc:"Mean service demand.")
  in
  let cv2 =
    Arg.(
      value & opt float 16.0
      & info [ "cv2" ] ~docv:"CV2" ~doc:"Squared coef. of variation (bimodal only).")
  in
  let load =
    Arg.(
      value & opt float 0.6
      & info [ "load" ] ~docv:"RHO"
          ~doc:"Offered load as a fraction of one serving pipe's capacity.")
  in
  let slo =
    Arg.(
      value & opt int 30_000
      & info [ "slo" ] ~docv:"CYCLES" ~doc:"Latency SLO for goodput accounting.")
  in
  let amplitude =
    Arg.(
      value & opt float 0.0
      & info [ "amplitude" ] ~docv:"A"
          ~doc:"MMPP burstiness amplitude in [0,1); 0 is plain Poisson.")
  in
  let dwell =
    Arg.(
      value & opt float 200_000.0
      & info [ "dwell" ] ~docv:"CYCLES" ~doc:"Mean MMPP phase dwell time.")
  in
  let run design dist mean cv2 load slo amplitude dwell background seed count =
    let module Io = Io_path in
    let service =
      match dist with
      | `Exp -> Sl_util.Dist.Exponential mean
      | `Bimodal -> Sl_util.Dist.bimodal_with_cv2 ~mean ~cv2 ~p_long:0.02
      | `Pareto ->
        (* shape 2.5: heavy tail with finite variance; scale set so the
           mean lands on [mean]. *)
        Sl_util.Dist.Pareto { scale = mean *. 1.5 /. 2.5; shape = 2.5 }
      | `Constant -> Sl_util.Dist.Constant mean
    in
    let rate = load *. 1000.0 /. mean in
    let arrivals =
      if amplitude <= 0.0 then Arrivals.poisson ~rate_per_kcycle:rate
      else Arrivals.bursty ~rate_per_kcycle:rate ~amplitude ~mean_dwell:dwell
    in
    let cfg = { Io.params = p; seed; arrivals; service; count; slo } in
    let r = Io.run ~background design cfg in
    Printf.printf "offered %.3f req/kcycle (load %.2f), served %d (dropped %d)\n" rate
      load r.Io.lat.Latency.count r.Io.io.Io.dropped;
    Printf.printf "latency: %s\n"
      (Format.asprintf "%a" Latency.pp_summary r.Io.lat);
    Printf.printf "cycles: useful %.0f | poll %.0f | overhead %.0f | waste %.1f%%\n"
      r.Io.io.Io.useful_cycles r.Io.io.Io.poll_cycles r.Io.io.Io.overhead_cycles
      (100.0 *. Io.wasted_fraction r.Io.io);
    if background then
      Printf.printf "background: %.0f cycles\n" r.Io.io.Io.background_cycles
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Offered-load point for one I/O delivery design: tail latency, SLO \
          misses, goodput, cycle accounting (the interactive face of bench \
          e1, e2 and e16).")
    Term.(
      const run $ design $ dist $ mean $ cv2 $ load $ slo $ amplitude $ dwell
      $ background $ seed $ count)

(* --- netstack --- *)

let netstack_cmd =
  let loss =
    Arg.(
      value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Per-link drop probability.")
  in
  let segments =
    Arg.(value & opt int 300 & info [ "segments" ] ~docv:"N" ~doc:"Segments to transfer.")
  in
  let link_delay =
    Arg.(
      value & opt int 2000 & info [ "link-delay" ] ~docv:"CYCLES" ~doc:"One-way delay.")
  in
  let run seed loss segments link_delay =
    let s =
      Sl_os.Netstack.run ~seed ~loss ~link_delay ~params:p
        ~segments ()
    in
    Printf.printf
      "delivered %d | retransmissions %d | duplicates %d | acks %d\n"
      s.Sl_os.Netstack.delivered s.Sl_os.Netstack.retransmissions
      s.Sl_os.Netstack.duplicates s.Sl_os.Netstack.acks_sent;
    Printf.printf "elapsed %d cycles | goodput %.4f segments/kcycle\n"
      s.Sl_os.Netstack.elapsed_cycles s.Sl_os.Netstack.goodput_per_kcycle
  in
  Cmd.v
    (Cmd.info "netstack" ~doc:"Interrupt-free reliable transport over lossy links.")
    Term.(const run $ seed $ loss $ segments $ link_delay)

(* --- vm --- *)

let vm_cmd =
  let slice =
    Arg.(value & opt int 20_000 & info [ "slice" ] ~docv:"CYCLES" ~doc:"Time slice.")
  in
  let vms = Arg.(value & opt int 2 & info [ "vms" ] ~docv:"N" ~doc:"Virtual machines.") in
  let vcpus = Arg.(value & opt int 2 & info [ "vcpus" ] ~docv:"N" ~doc:"vCPUs per VM.") in
  let run slice vms vcpus =
        let hw = Sl_os.Vm.hw_timeshare p ~vms ~vcpus ~slice ~duration:2_000_000 in
    let sw = Sl_os.Vm.sw_timeshare p ~vms ~vcpus ~slice ~duration:2_000_000 in
    Printf.printf "hardware threads: %.1f%% guest utilization (%d switches)\n"
      (100.0 *. hw.Sl_os.Vm.utilization) hw.Sl_os.Vm.switches;
    Printf.printf "software threads: %.1f%% guest utilization (%d switches)\n"
      (100.0 *. sw.Sl_os.Vm.utilization) sw.Sl_os.Vm.switches
  in
  Cmd.v
    (Cmd.info "vm" ~doc:"VM time-sharing: world switches by start/stop.")
    Term.(const run $ slice $ vms $ vcpus)

(* --- explore --- *)

let explore_cmd =
  let module Explore = Sl_explore.Explore in
  let module Scenario = Sl_explore.Scenario in
  let scenario =
    Arg.(
      value
      & opt string "boot.replica"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Exploration target, one of: %s."
               (String.concat ", " Scenario.names)))
  in
  let trials =
    Arg.(
      value & opt int 60
      & info [ "trials" ] ~docv:"N" ~doc:"Exploration trials to run.")
  in
  let max_shrink =
    Arg.(
      value
      & opt int Explore.default_max_shrink_runs
      & info [ "max-shrink-runs" ] ~docv:"N"
          ~doc:"Per-failure scenario-execution budget for the shrinker.")
  in
  let max_seconds =
    Arg.(
      value & opt float 0.0
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock budget; exploration stops early once exceeded \
             (0 = no limit).  A budget-cut run is valid but no longer \
             machine-independent.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let expect_repros =
    Arg.(
      value & flag
      & info [ "expect-repros" ]
          ~doc:
            "Invert the exit status: fail when NO repro is found.  For CI \
             jobs that point the explorer at a known-seeded regression to \
             prove the search still finds it.")
  in
  let run seed scenario trials max_shrink_runs max_seconds out expect_repros =
    match Scenario.find scenario with
    | None ->
      Printf.eprintf "explore: unknown scenario %S; available: %s\n" scenario
        (String.concat ", " Scenario.names);
      exit 2
    | Some sc ->
      let cfg = { Explore.seed; trials; scenario = sc; max_shrink_runs } in
      let stop =
        if max_seconds <= 0.0 then fun () -> false
        else begin
          let t0 = Unix.gettimeofday () in
          fun () -> Unix.gettimeofday () -. t0 > max_seconds
        end
      in
      let report = Explore.run ~stop cfg in
      let json = Explore.report_to_json report in
      print_endline json;
      (match out with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (json ^ "\n");
        close_out oc);
      (* Every repro must reproduce standalone: parse its spec back and
         re-run the scenario outside the exploration loop.  A repro that
         fails this check means shrinking or spec round-tripping broke —
         always a tool bug worth failing loudly on. *)
      let unreproducible =
        List.filter
          (fun (r : Explore.repro) ->
            match Sl_fault.Fault.parse_spec r.Explore.spec with
            | Error _ -> true
            | Ok plan -> (sc.Scenario.run plan).Scenario.pass)
          report.Explore.repros
      in
      List.iter
        (fun (r : Explore.repro) ->
          Printf.eprintf "explore: repro %s (%s; shrunk from %s in %d runs)\n"
            r.Explore.spec r.Explore.reason r.Explore.original_spec
            r.Explore.shrink_runs)
        report.Explore.repros;
      List.iter
        (fun (r : Explore.repro) ->
          Printf.eprintf "explore: REPRO DOES NOT REPRODUCE STANDALONE: %s\n"
            r.Explore.spec)
        unreproducible;
      if unreproducible <> [] then exit 1;
      if expect_repros then begin
        if report.Explore.repros = [] then begin
          Printf.eprintf
            "explore: expected to find a repro in %S and found none\n"
            scenario;
          exit 1
        end
      end
      else if report.Explore.repros <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Coverage-guided fault-space exploration (nemesis): search fault \
          plans for oracle/sanitizer failures, delta-debug each failure to \
          a minimal SWITCHLESS_FAULTS spec, and report JSON.  Deterministic \
          for a fixed -seed/-trials.")
    Term.(
      const run $ seed $ scenario $ trials $ max_shrink $ max_seconds $ out
      $ expect_repros)

let check_cmd =
  let module S = Sl_staticcheck in
  let roots =
    Arg.(
      value
      & pos_all string [ "lib" ]
      & info [] ~docv:"DIR"
          ~doc:"Source roots whose build trees to analyze (default: lib).")
  in
  let allow =
    Arg.(
      value
      & opt string "staticcheck.allow"
      & info [ "allow" ] ~docv:"FILE"
          ~doc:"Allowlist of justified findings (rule file binding why).")
  in
  let report_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the findings report (Report format) to $(docv).")
  in
  let run roots allow report_file =
    let result =
      try S.Staticcheck.run ~allow roots with
      | Failure msg | Sys_error msg ->
        Printf.eprintf "check: %s\n" msg;
        exit 2
    in
    let findings = result.S.Staticcheck.findings in
    let unused = result.S.Staticcheck.unused in
    List.iter (fun s -> print_endline (S.Site.to_string s)) findings;
    List.iter
      (fun (e : S.Allowlist.entry) ->
        Printf.printf
          "check: stale allowlist entry matches nothing: %s %s %s\n"
          e.S.Allowlist.rule e.S.Allowlist.file e.S.Allowlist.ident)
      unused;
    (match report_file with
    | None -> ()
    | Some path ->
      let reports = List.map S.Site.to_report findings in
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      List.iter
        (fun r -> Format.fprintf ppf "%a@." Sl_analysis.Report.pp r)
        reports;
      Format.fprintf ppf "%s@." (Sl_analysis.Report.summary reports);
      Format.pp_print_flush ppf ();
      close_out oc);
    Printf.printf "check: %s; %d allowlisted\n"
      (Sl_analysis.Report.summary (List.map S.Site.to_report findings))
      (List.length result.S.Staticcheck.allowed);
    if findings <> [] || unused <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Typed static analysis over the compiled typedtrees: \
          arm-before-park/register protocol, domain-safety of top-level \
          state, determinism/print hygiene, polymorphic compare at \
          immediate types, and the [@@sl.zero_alloc] allocation budget.")
    Term.(const run $ roots $ allow $ report_file)

let () =
  let info =
    Cmd.info "switchless-sim" ~version:"1.0.0"
      ~doc:
        "Simulator for the hardware threading model of 'A Case Against (Most) \
         Context Switches' (HotOS '21)."
  in
  let cmd =
    Cmd.group info
      [
        params_cmd;
        wakeup_cmd;
        syscall_cmd;
        server_cmd;
        lock_cmd;
        load_cmd;
        netstack_cmd;
        vm_cmd;
        explore_cmd;
        check_cmd;
      ]
  in
  (* The libraries reject out-of-range parameters (a zero rate, a loss
     of 1, no cores) with [Invalid_argument]: that is the user's error,
     so it is reported as a usage error.  Any other exception is an
     internal error, as cmdliner itself would report it. *)
  exit
    (match Cmd.eval ~catch:false cmd with
     | code -> code
     | exception Invalid_argument msg ->
       prerr_endline ("switchless-sim: " ^ msg);
       Cmd.Exit.cli_error
     | exception e ->
       prerr_endline
         ("switchless-sim: internal error, uncaught exception: " ^ Printexc.to_string e);
       Cmd.Exit.internal_error)
