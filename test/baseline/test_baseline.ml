(* Tests for the conventional world: cost arithmetic, software scheduler,
   interrupt controller, FlexSC worker. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core
module Ctx_cost = Sl_baseline.Ctx_cost
module Swsched = Sl_baseline.Swsched
module Irq = Sl_baseline.Irq
module Flexsc = Sl_baseline.Flexsc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

(* --- Ctx_cost --- *)

let test_save_restore_scaling () =
  let gp = Ctx_cost.save_restore_cycles p ~out_vector:false ~in_vector:false in
  let full = Ctx_cost.save_restore_cycles p ~out_vector:true ~in_vector:true in
  (* 2 x 272 / 16 = 34; 2 x 784 / 16 = 98. *)
  check_int "gp only" 34 gp;
  check_int "with vector" 98 full;
  check_bool "vector dearer" true (full > gp)

let test_switch_composition () =
  let c = Ctx_cost.software_switch_cycles p ~out_vector:false ~in_vector:false () in
  check_int "fixed + copy + sched + warmup" (250 + 34 + 1200 + 2000) c;
  let no_warm =
    Ctx_cost.software_switch_cycles p ~warmup:false ~out_vector:false ~in_vector:false ()
  in
  check_int "without warmup" (250 + 34 + 1200) no_warm

let test_trap_costs () =
  check_int "roundtrip" 150 (Ctx_cost.trap_roundtrip_cycles p);
  check_int "with pollution" 450 (Ctx_cost.trap_total_cycles p);
  check_int "interrupt path" 1000 (Ctx_cost.interrupt_path_cycles p);
  check_int "vmexit" 1500 (Ctx_cost.vmexit_roundtrip_cycles p)

(* --- Swsched --- *)

let test_single_thread_no_switch_after_first () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:1 () in
  let th = Swsched.thread sched () in
  let done_at = ref 0 in
  Sim.spawn sim (fun () ->
      Swsched.exec th 1000;
      Swsched.exec th 1000;
      done_at := Sim.now ());
  Sim.run sim;
  check_int "one switch (onto the context)" 1 (Swsched.switch_count sched);
  (* 3484 (first switch) + 2000 work. *)
  check_int "time" (3484 + 2000) !done_at

let test_two_threads_pay_switches () =
  let sim = Sim.create () in
  (* One context total so the threads must interleave. *)
  let one_ctx = { p with Params.smt_width = 1 } in
  let sched = Swsched.create sim one_ctx ~quantum:500 ~cores:1 () in
  let a = Swsched.thread sched () and b = Swsched.thread sched () in
  Sim.spawn sim (fun () -> Swsched.exec a 1000);
  Sim.spawn sim (fun () -> Swsched.exec b 1000);
  Sim.run sim;
  (* a(500) b(500) a(500) b(500): four slices, each a thread change. *)
  check_int "four switches" 4 (Swsched.switch_count sched);
  check_bool "overhead accounted" true (Swsched.switch_overhead_cycles sched > 13000.0)

let test_fcfs_runs_to_completion () =
  let sim = Sim.create () in
  let one_ctx = { p with Params.smt_width = 1 } in
  let sched = Swsched.create sim one_ctx ~cores:1 () in
  let a = Swsched.thread sched () and b = Swsched.thread sched () in
  let order = ref [] in
  Sim.spawn sim (fun () ->
      Swsched.exec a 1000;
      order := "a" :: !order);
  Sim.spawn sim (fun () ->
      Swsched.exec b 1000;
      order := "b" :: !order);
  Sim.run sim;
  Alcotest.(check (list string)) "fifo completion" [ "b"; "a" ] !order;
  check_int "exactly two switches" 2 (Swsched.switch_count sched)

(* A freed context goes to the longest-queued thread: four threads
   queue behind a running one in an order unlike their spawn order,
   and run in the order they queued. *)
let test_freed_context_in_arrival_order () =
  let sim = Sim.create () in
  let one_ctx = { p with Params.smt_width = 1 } in
  let sched = Swsched.create sim one_ctx ~cores:1 () in
  let order = ref [] in
  let holder = Swsched.thread sched () in
  Sim.spawn sim (fun () -> Swsched.exec holder 1000);
  List.iter
    (fun (name, at) ->
      let th = Swsched.thread sched () in
      Sim.spawn sim (fun () ->
          Sim.delay at;
          Swsched.exec th 100;
          order := name :: !order))
    [ ("a", 20); ("b", 40); ("c", 10); ("d", 30) ];
  Sim.run sim;
  Alcotest.(check (list string)) "arrival order" [ "c"; "a"; "d"; "b" ] (List.rev !order);
  check_int "a switch per thread" 5 (Swsched.switch_count sched)

(* Idle contexts form a stack, newest released on top.  A and B take
   the two contexts; A, which runs longer, releases last, so C (at tick
   10,000) takes A's context, and A's next exec (at 12,000) finds its own
   busy and switches onto B's: four switches.  Oldest released first
   would hand C B's context and leave A its own: three. *)
let test_newest_released_first () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:1 () in
  let a = Swsched.thread sched () and b = Swsched.thread sched () in
  let c = Swsched.thread sched () in
  Sim.spawn sim (fun () ->
      Swsched.exec a 2_000;
      Sim.delay (12_000 - Sim.now ());
      Swsched.exec a 100);
  Sim.spawn sim (fun () -> Swsched.exec b 1_000);
  Sim.spawn sim (fun () ->
      Sim.delay 10_000;
      Swsched.exec c 5_000);
  Sim.run sim;
  check_int "switches" 4 (Swsched.switch_count sched)

(* Words per exec of a lone thread, whose context is idle at every
   exec, as the difference of two loop lengths.  Idle contexts in a list
   cost 12 words per exec on one core: a [List.filter] per pick and a
   [Some] for the context last run. *)
let test_exec_on_idle_context_allocates_nothing () =
  let run n =
    let sim = Sim.create () in
    let sched = Swsched.create sim p ~cores:1 () in
    let th = Swsched.thread sched () in
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          Swsched.exec th 10
        done);
    let before = Gc.minor_words () in
    Sim.run sim;
    Gc.minor_words () -. before
  in
  ignore (run 100 : float);
  let w = (run 2_000 -. run 1_000) /. 1_000.0 in
  check_bool (Printf.sprintf "%.1f minor words per exec = 0" w) true (w = 0.0)

let test_contexts_match_cores_times_width () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:3 () in
  check_int "contexts" (3 * p.Params.smt_width) (Swsched.context_count sched)

let test_vector_thread_switch_cost () =
  let sim = Sim.create () in
  let one_ctx = { p with Params.smt_width = 1 } in
  let sched = Swsched.create sim one_ctx ~warmup:false ~cores:1 () in
  let a = Swsched.thread sched ~vector:true () in
  let done_at = ref 0 in
  Sim.spawn sim (fun () ->
      Swsched.exec a 100;
      done_at := Sim.now ());
  Sim.run sim;
  (* Switch in: fixed 250 + (272 out + 784 in)/16 = 66 + sched 1200. *)
  check_int "vector restore charged" (250 + 66 + 1200 + 100) !done_at

(* --- Irq --- *)

let test_irq_runs_handler_with_entry_exit () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:1 () in
  let irq = Irq.create sim p ~cores:(Swsched.cores sched) in
  let handled_at = ref 0 in
  Sim.schedule sim ~at:100 (fun () ->
      Irq.raise_irq irq ~core:0 ~handler:(fun ~exec ->
          exec 50;
          handled_at := Sim.now ()));
  Sim.run sim;
  (* 100 + entry 600 + body 50. *)
  check_int "handler completion" 750 !handled_at;
  check_int "one irq" 1 (Irq.irq_count irq)

let test_irq_serializes_per_core () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:1 () in
  let irq = Irq.create sim p ~cores:(Swsched.cores sched) in
  let completions = ref [] in
  Sim.schedule sim ~at:0 (fun () ->
      for _ = 1 to 2 do
        Irq.raise_irq irq ~core:0 ~handler:(fun ~exec ->
            exec 100;
            completions := Sim.time sim :: !completions)
      done);
  Sim.run sim;
  match List.rev !completions with
  | [ first; second ] ->
    check_int "first at entry+body" 700 first;
    (* Second waits for first's exit (400) then pays its own entry. *)
    check_int "second serialized" (700 + 400 + 600 + 100) second
  | _ -> Alcotest.fail "expected two completions"

let test_irq_steals_capacity_from_app () =
  let sim = Sim.create () in
  let one_ctx = { p with Params.smt_width = 1 } in
  let sched = Swsched.create sim one_ctx ~cores:1 () in
  let irq = Irq.create sim one_ctx ~cores:(Swsched.cores sched) in
  let th = Swsched.thread sched () in
  let done_at = ref 0 in
  Sim.spawn sim (fun () ->
      Swsched.exec th 10_000;
      done_at := Sim.now ());
  Sim.schedule sim ~at:5_000 (fun () ->
      Irq.raise_irq irq ~core:0 ~handler:(fun ~exec -> exec 1_000));
  Sim.run sim;
  (* Without the IRQ the app would finish at 3484 + 10000 = 13484; the
     2000-cycle IRQ (entry+body+exit) shares the single pipeline slot
     while active, delaying the app by about that much. *)
  check_bool "app delayed by irq" true (!done_at > 14_000)

let test_ipi_adds_latency () =
  let sim = Sim.create () in
  let sched = Swsched.create sim p ~cores:2 () in
  let irq = Irq.create sim p ~cores:(Swsched.cores sched) in
  let handled_at = ref 0 in
  Sim.spawn sim (fun () ->
      Irq.send_ipi irq ~core:1 ~handler:(fun ~exec ->
          exec 1;
          handled_at := Sim.now ()));
  Sim.run sim;
  (* ipi 1000 + entry 600 + 1. *)
  check_int "ipi + entry" 1601 !handled_at;
  check_int "ipi counted" 1 (Irq.ipi_count irq)

(* --- Flexsc --- *)

let test_flexsc_batches_calls () =
  let sim = Sim.create () in
  let kernel_core = Smt_core.create sim p ~core_id:99 in
  let fx = Flexsc.create sim p ~batch_window:500 ~core:kernel_core () in
  let finished = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Flexsc.call fx ~kernel_work:100;
        finished := (i, Sim.now ()) :: !finished)
  done;
  Sim.run sim;
  check_int "three calls" 3 (Flexsc.calls fx);
  check_int "one batch" 1 (Flexsc.batches fx);
  (* Batch opens at t=0, accumulates 500, then serves 3 x 100 serially. *)
  let times = List.rev_map snd !finished in
  check_bool "all after the window" true (List.for_all (fun t -> t >= 600) times)

let test_flexsc_second_batch_for_late_call () =
  let sim = Sim.create () in
  let kernel_core = Smt_core.create sim p ~core_id:99 in
  let fx = Flexsc.create sim p ~batch_window:500 ~core:kernel_core () in
  Sim.spawn sim (fun () -> Flexsc.call fx ~kernel_work:10);
  Sim.spawn sim (fun () ->
      Sim.delay 5_000;
      Flexsc.call fx ~kernel_work:10);
  Sim.run sim;
  check_int "two batches" 2 (Flexsc.batches fx)

let () =
  Alcotest.run "baseline"
    [
      ( "ctx_cost",
        [
          Alcotest.test_case "save/restore scaling" `Quick test_save_restore_scaling;
          Alcotest.test_case "switch composition" `Quick test_switch_composition;
          Alcotest.test_case "trap costs" `Quick test_trap_costs;
        ] );
      ( "swsched",
        [
          Alcotest.test_case "single thread" `Quick test_single_thread_no_switch_after_first;
          Alcotest.test_case "two threads switch" `Quick test_two_threads_pay_switches;
          Alcotest.test_case "fcfs run-to-completion" `Quick test_fcfs_runs_to_completion;
          Alcotest.test_case "freed context in arrival order" `Quick
            test_freed_context_in_arrival_order;
          Alcotest.test_case "context count" `Quick test_contexts_match_cores_times_width;
          Alcotest.test_case "newest released first" `Quick test_newest_released_first;
          Alcotest.test_case "idle exec allocates nothing" `Quick
            test_exec_on_idle_context_allocates_nothing;
          Alcotest.test_case "vector switch cost" `Quick test_vector_thread_switch_cost;
        ] );
      ( "irq",
        [
          Alcotest.test_case "entry/exit accounting" `Quick test_irq_runs_handler_with_entry_exit;
          Alcotest.test_case "serialization" `Quick test_irq_serializes_per_core;
          Alcotest.test_case "steals capacity" `Quick test_irq_steals_capacity_from_app;
          Alcotest.test_case "ipi latency" `Quick test_ipi_adds_latency;
        ] );
      ( "flexsc",
        [
          Alcotest.test_case "batching" `Quick test_flexsc_batches_calls;
          Alcotest.test_case "late call new batch" `Quick test_flexsc_second_batch_for_late_call;
        ] );
    ]
