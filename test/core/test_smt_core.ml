(* Tests for the weighted processor-sharing SMT execution model. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

let check_i64 = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_core ?(smt_width = 2) f =
  let params = { Params.default with Params.smt_width } in
  let sim = Sim.create () in
  let core = Smt_core.create sim params ~core_id:0 in
  f sim core

(* Run [cycles] of work for [ptid] and record the completion time. *)
let job sim core ~ptid ?(kind = Smt_core.Useful) ?(weight = 1.0) ?(start = 0) cycles finished =
  Sim.spawn sim (fun () ->
      Sim.delay start;
      Smt_core.set_runnable core ~ptid ~weight true;
      Smt_core.execute core ~ptid ~kind cycles;
      Smt_core.set_runnable core ~ptid ~weight false;
      finished := Sim.now ())

let test_single_job_full_rate () =
  with_core (fun sim core ->
      let t = ref 0 in
      job sim core ~ptid:1 1000 t;
      Sim.run sim;
      check_i64 "1000 cycles at rate 1" 1000 !t)

let test_two_jobs_within_width () =
  with_core ~smt_width:2 (fun sim core ->
      let t1 = ref 0 and t2 = ref 0 in
      job sim core ~ptid:1 1000 t1;
      job sim core ~ptid:2 1000 t2;
      Sim.run sim;
      check_i64 "both at full rate" 1000 !t1;
      check_i64 "both at full rate" 1000 !t2)

let test_three_jobs_share_two_slots () =
  with_core ~smt_width:2 (fun sim core ->
      let t1 = ref 0 and t2 = ref 0 and t3 = ref 0 in
      job sim core ~ptid:1 300 t1;
      job sim core ~ptid:2 300 t2;
      job sim core ~ptid:3 300 t3;
      Sim.run sim;
      (* Each runs at 2/3: 300 cycles of service need 450 wall cycles. *)
      check_i64 "ps rate 2/3" 450 !t1;
      check_i64 "ps rate 2/3" 450 !t2;
      check_i64 "ps rate 2/3" 450 !t3)

let test_weighted_sharing () =
  with_core ~smt_width:1 (fun sim core ->
      let heavy = ref 0 and light = ref 0 in
      job sim core ~ptid:1 ~weight:2.0 600 heavy;
      job sim core ~ptid:2 ~weight:1.0 600 light;
      Sim.run sim;
      (* Heavy runs at 2/3 until done at t=900; light then finishes its
         remaining 300 at full rate: 900 + 300 = 1200. *)
      check_i64 "heavy done at 900" 900 !heavy;
      check_i64 "light done at 1200" 1200 !light)

let test_rate_cap_at_one () =
  with_core ~smt_width:2 (fun sim core ->
      (* Weight 100 vs 1 vs 1: the heavy thread is capped at rate 1.0, the
         two light ones share the remaining slot at 0.5 each. *)
      let heavy = ref 0 and l1 = ref 0 and l2 = ref 0 in
      job sim core ~ptid:1 ~weight:100.0 1000 heavy;
      job sim core ~ptid:2 ~weight:1.0 500 l1;
      job sim core ~ptid:3 ~weight:1.0 500 l2;
      Sim.run sim;
      check_i64 "capped at full rate" 1000 !heavy;
      check_i64 "light shares 0.5 each" 1000 !l1;
      check_i64 "light shares 0.5 each" 1000 !l2)

let test_late_arrival_slows_first () =
  with_core ~smt_width:1 (fun sim core ->
      let a = ref 0 and b = ref 0 in
      job sim core ~ptid:1 1000 a;
      job sim core ~ptid:2 ~start:500 1000 b;
      Sim.run sim;
      (* A alone for 500 cycles (500 served), then shares at 0.5: another
         1000 wall cycles for its remaining 500.  Done at 1500.  B has
         served 500 by then, finishes the rest alone: 1500 + 500 = 2000. *)
      check_i64 "a done at 1500" 1500 !a;
      check_i64 "b done at 2000" 2000 !b)

let test_stop_freezes_work () =
  with_core ~smt_width:1 (fun sim core ->
      let t = ref 0 in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
          Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 1000;
          t := Sim.now ());
      (* Freeze from 200 to 700. *)
      Sim.schedule sim ~at:200 (fun () ->
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 false);
      Sim.schedule sim ~at:700 (fun () ->
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true);
      Sim.run sim;
      check_i64 "paused 500 cycles" 1500 !t)

let test_zero_cycles_returns_immediately () =
  with_core (fun sim core ->
      let t = ref (-1) in
      Sim.spawn sim (fun () ->
          Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 0;
          t := Sim.now ());
      Sim.run sim;
      check_i64 "no time consumed" 0 !t)

let test_execute_requires_runnable () =
  with_core (fun sim core ->
      let raised = ref false in
      Sim.spawn sim (fun () ->
          match Smt_core.execute core ~ptid:9 ~kind:Smt_core.Useful 10 with
          | () -> ()
          | exception Invalid_argument _ -> raised := true);
      Sim.run sim;
      check_bool "rejected" true !raised)

let test_double_execute_rejected () =
  with_core (fun sim core ->
      let raised = ref false in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
          Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 100);
      Sim.spawn sim (fun () ->
          Sim.delay 10;
          match Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 100 with
          | () -> ()
          | exception Invalid_argument _ -> raised := true);
      Sim.run sim;
      check_bool "second in-flight execute rejected" true !raised)

let test_work_accounting_by_kind () =
  with_core ~smt_width:2 (fun sim core ->
      let d1 = ref 0 and d2 = ref 0 and d3 = ref 0 in
      job sim core ~ptid:1 ~kind:Smt_core.Useful 400 d1;
      job sim core ~ptid:2 ~kind:Smt_core.Poll 300 d2;
      job sim core ~ptid:3 ~kind:Smt_core.Overhead 200 d3;
      Sim.run sim;
      let close a b = abs_float (a -. b) < 1.0 in
      check_bool "useful" true (close (Smt_core.work_done core Smt_core.Useful) 400.0);
      check_bool "poll" true (close (Smt_core.work_done core Smt_core.Poll) 300.0);
      check_bool "overhead" true (close (Smt_core.work_done core Smt_core.Overhead) 200.0);
      check_bool "busy = total work" true (close (Smt_core.busy_capacity_cycles core) 900.0))

let test_runnable_count () =
  with_core (fun sim core ->
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
          Smt_core.set_runnable core ~ptid:2 ~weight:1.0 true;
          Alcotest.(check int) "two runnable" 2 (Smt_core.runnable_count core);
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 false;
          Alcotest.(check int) "one runnable" 1 (Smt_core.runnable_count core));
      Sim.run sim)

(* Property: processor sharing is work-conserving — with W total work and
   width k, the makespan lies within [W_total / (k * slowdown), ...] and
   every job's completion >= its own service demand. *)
let prop_work_conservation =
  QCheck.Test.make ~name:"PS is work-conserving and never early" ~count:100
    QCheck.(list_of_size Gen.(1 -- 12) (int_range 1 2000))
    (fun cycles_list ->
      let params = { Params.default with Params.smt_width = 2 } in
      let sim = Sim.create () in
      let core = Smt_core.create sim params ~core_id:0 in
      let completions = List.map (fun _ -> ref 0) cycles_list in
      List.iteri
        (fun i cycles ->
          let t = List.nth completions i in
          Sim.spawn sim (fun () ->
              Smt_core.set_runnable core ~ptid:i ~weight:1.0 true;
              Smt_core.execute core ~ptid:i ~kind:Smt_core.Useful cycles;
              Smt_core.set_runnable core ~ptid:i ~weight:1.0 false;
              t := Sim.now ()))
        cycles_list;
      Sim.run sim;
      let total = List.fold_left ( + ) 0 cycles_list in
      let makespan = Sim.time sim in
      let width = 2 in
      let n = List.length cycles_list in
      (* No job finishes before its own demand. *)
      List.for_all2
        (fun cycles t -> !t >= cycles)
        cycles_list completions
      (* Work conservation: makespan no larger than serial execution plus
         rounding slack, and at least total/width. *)
      && makespan >= total / width
      && makespan <= total + (2 * n))

(* N equal jobs on a 2-wide core finish in one advance.  They resume in
   the serve loop's order — the reverse of the order they became
   runnable — and that order must not depend on the Hashtbl hash seed. *)
let simultaneous_completion_order () =
  with_core ~smt_width:2 (fun sim core ->
      let order = ref [] in
      for i = 0 to 11 do
        (* Sparse ptids, so any hash-bucket order would show. *)
        let ptid = (i * 7919) + 3 in
        Sim.spawn sim (fun () ->
            Smt_core.set_runnable core ~ptid ~weight:1.0 true;
            Smt_core.execute core ~ptid ~kind:Smt_core.Useful 600;
            order := ptid :: !order)
      done;
      Sim.run sim;
      List.rev !order)

let test_simultaneous_completions_resume_in_serve_order () =
  let before = simultaneous_completion_order () in
  Hashtbl.randomize ();
  let after = simultaneous_completion_order () in
  let expected = List.init 12 (fun i -> ((11 - i) * 7919) + 3) in
  Alcotest.(check (list int)) "serve-loop order" expected before;
  Alcotest.(check (list int)) "same under a random hash seed" before after

(* The uniform-rate serve path against water-filling.  A job set run at
   weight 1.0 takes the uniform path whenever nothing is frozen; at
   weight 2.0 every advance water-fills, and with n > width jobs its rate
   [2 width / 2n] rounds exactly like [width / n] (both quotients are of
   exact operands).  So every completion time and every float total must
   match bit for bit.  Stop/start toggles freeze jobs, which sends the
   weight-1.0 run through water-filling too, until they thaw. *)
type sjob = {
  start : int;
  cycles : int;
  kind : Smt_core.kind;
  toggles : (int * int) list;  (* (offset after start, frozen for) *)
}

let run_job_set ~width ~weight jobs =
  let params = { Params.default with Params.smt_width = width } in
  let sim = Sim.create () in
  let core = Smt_core.create sim params ~core_id:0 in
  let n = List.length jobs in
  let state = Array.make n 0 (* 0 waiting, 1 executing, 2 done *) in
  let done_at = Array.make n (-1) in
  List.iteri
    (fun ptid j ->
      Sim.spawn sim (fun () ->
          Sim.delay j.start;
          Smt_core.set_runnable core ~ptid ~weight true;
          state.(ptid) <- 1;
          Smt_core.execute core ~ptid ~kind:j.kind j.cycles;
          state.(ptid) <- 2;
          done_at.(ptid) <- Sim.now ();
          Smt_core.set_runnable core ~ptid ~weight false);
      List.iter
        (fun (off, len) ->
          Sim.schedule sim ~at:(j.start + off) (fun () ->
              if state.(ptid) = 1 then begin
                Smt_core.set_runnable core ~ptid ~weight false;
                Sim.schedule sim ~at:(Sim.time sim + len) (fun () ->
                    Smt_core.set_runnable core ~ptid ~weight true)
              end))
        j.toggles)
    jobs;
  Sim.run sim;
  let bits = Int64.bits_of_float in
  ( Array.to_list done_at,
    List.init n (fun ptid -> bits (Smt_core.thread_cycles core ~ptid)),
    List.map
      (fun k -> bits (Smt_core.work_done core k))
      [ Smt_core.Useful; Smt_core.Poll; Smt_core.Overhead ],
    bits (Smt_core.busy_capacity_cycles core) )

let gen_job_set =
  let open QCheck.Gen in
  let job =
    map4
      (fun start cycles kind toggles -> { start; cycles; kind; toggles })
      (int_bound 2000) (int_range 1 3000)
      (oneofl [ Smt_core.Useful; Smt_core.Poll; Smt_core.Overhead ])
      (list_size (int_bound 2) (pair (int_range 1 1500) (int_range 1 800)))
  in
  pair (int_range 1 4) (list_size (int_range 1 40) job)

let prop_uniform_path_matches_water_filling =
  QCheck.Test.make ~name:"uniform-rate serve path matches water-filling bit for bit"
    ~count:300 (QCheck.make gen_job_set) (fun (width, jobs) ->
      run_job_set ~width ~weight:1.0 jobs = run_job_set ~width ~weight:2.0 jobs)

(* --- The only job continues inline (Sim.skip_to) --- *)

(* A callback every tick up to [until]: an event is always due, so no
   [execute] can complete inline. *)
let heartbeat sim ~until =
  let rec beat () =
    let now = Sim.time sim in
    if now < until then Sim.schedule sim ~at:(now + 1) beat
  in
  Sim.schedule sim ~at:0 beat

(* One thread alone on an idle core: a 7-cycle delay, then one execute.
   When the execute returned, and the world's event count. *)
let lone_execute ~beat cycles =
  with_core (fun sim core ->
      if beat then heartbeat sim ~until:1_000;
      let returned = ref (-1) in
      Sim.spawn sim (fun () ->
          Sim.delay 7;
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
          Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful cycles;
          returned := Sim.now ());
      Sim.run sim;
      (!returned, Sim.events_processed sim))

(* Counted against the same world running a zero-cycle execute, which
   returns at once. *)
let test_lone_execute_inline () =
  let added ~beat =
    let at, events = lone_execute ~beat 100 in
    let _, without = lone_execute ~beat 0 in
    (at, events - without)
  in
  Alcotest.(check (pair int int)) "idle world: no event" (107, 0) (added ~beat:false);
  Alcotest.(check (pair int int))
    "heartbeat: completion and hop" (107, 2) (added ~beat:true)

(* An event pushed earlier for a tick at or before the completion runs
   before [execute] returns; one a tick later runs after, and the
   execute then completed inline (two events: the start and the
   callback). *)
let test_due_event_runs_before_execute_returns () =
  let order at =
    with_core (fun sim core ->
        let log = ref [] in
        let note what = log := Printf.sprintf "%s@%d" what (Sim.time sim) :: !log in
        Sim.schedule sim ~at (fun () -> note "callback");
        Sim.spawn sim (fun () ->
            Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
            Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 100;
            note "returned");
        Sim.run sim;
        (List.rev !log, Sim.events_processed sim))
  in
  let check = Alcotest.(check (pair (list string) int)) in
  check "before" ([ "callback@99"; "returned@100" ], 4) (order 99);
  check "at the same tick" ([ "callback@100"; "returned@100" ], 4) (order 100);
  check "after" ([ "returned@100"; "callback@101" ], 2) (order 101)

(* A completion past the run's horizon is not taken inline: the thread
   is still executing with the clock at the horizon, and the next run
   completes it on time. *)
let test_execute_past_horizon_waits () =
  with_core (fun sim core ->
      let returned = ref (-1) in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
          Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 100;
          returned := Sim.now ());
      Sim.run ~until:60 sim;
      check_i64 "clock at the horizon" 60 (Sim.time sim);
      check_i64 "still executing" (-1) !returned;
      Sim.run sim;
      check_i64 "returned at its completion" 100 !returned)

(* Outside a process an execute has nothing to suspend, even alone on
   an idle core: it raises as it always did, also once a process's
   exception has escaped the previous run. *)
let test_execute_outside_process_raises () =
  let raises_unhandled sim =
    match Sim.run sim with () -> false | exception Effect.Unhandled _ -> true
  in
  let execute core () = Smt_core.execute core ~ptid:1 ~kind:Smt_core.Useful 10 in
  with_core (fun sim core ->
      Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
      Sim.schedule sim ~at:5 (execute core);
      check_bool "from a callback on an idle world" true (raises_unhandled sim));
  with_core (fun sim core ->
      Smt_core.set_runnable core ~ptid:1 ~weight:1.0 true;
      Sim.spawn sim (fun () ->
          execute core ();
          failwith "escaped");
      (match Sim.run sim with
       | () -> Alcotest.fail "the exception did not escape"
       | exception Failure _ -> ());
      Sim.schedule sim ~at:(Sim.time sim + 5) (execute core);
      check_bool "after a process's exception escaped" true (raises_unhandled sim))

(* 64 unit-weight threads time-share a 2-wide core, 200 executes each:
   every advance serves up to 64 jobs on the uniform path.  Also the
   microbench kernel "smt_core 64 unit-weight jobs x200 executes". *)
let unit_weight_churn () =
  let params = { Params.default with Params.smt_width = 2 } in
  let sim = Sim.create () in
  let core = Smt_core.create sim params ~core_id:0 in
  for p = 0 to 63 do
    let cycles = 50 + (p * 37 mod 101) in
    Sim.spawn sim (fun () ->
        Smt_core.set_runnable core ~ptid:p ~weight:1.0 true;
        for _ = 1 to 200 do
          Smt_core.execute core ~ptid:p ~kind:Smt_core.Useful cycles
        done)
  done;
  Sim.run sim

(* The serve loop must not allocate per served job.  The [zero-alloc]
   static rule cannot see a float boxed at a non-inlined call, which is
   how ~4 words per served job once crept in; this bound can.  What is
   left per [execute] (14.9 words on OCaml 5.1) is the suspension's
   continuation and the completion event's closure; the bound fails if
   [busy] or [min_rem] is boxed again on every store (17.7 words), or
   if [execute] goes back to [Sim.await] (42.5 words).  Measured on the
   second run, so one-off growth of the core's arrays does not count. *)
let test_uniform_serve_allocation () =
  unit_weight_churn ();
  let before = Gc.minor_words () in
  unit_weight_churn ();
  let per_execute = (Gc.minor_words () -. before) /. float_of_int (64 * 200) in
  check_bool
    (Printf.sprintf "%.1f minor words per execute < 16.5" per_execute)
    true (per_execute < 16.5)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_work_conservation; prop_uniform_path_matches_water_filling ]
  in
  Alcotest.run "smt_core"
    [
      ( "rates",
        [
          Alcotest.test_case "single job full rate" `Quick test_single_job_full_rate;
          Alcotest.test_case "two jobs within width" `Quick test_two_jobs_within_width;
          Alcotest.test_case "three share two slots" `Quick test_three_jobs_share_two_slots;
          Alcotest.test_case "weighted sharing" `Quick test_weighted_sharing;
          Alcotest.test_case "rate cap at 1.0" `Quick test_rate_cap_at_one;
          Alcotest.test_case "late arrival" `Quick test_late_arrival_slows_first;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stop freezes work" `Quick test_stop_freezes_work;
          Alcotest.test_case "zero cycles immediate" `Quick test_zero_cycles_returns_immediately;
          Alcotest.test_case "execute requires runnable" `Quick test_execute_requires_runnable;
          Alcotest.test_case "double execute rejected" `Quick test_double_execute_rejected;
          Alcotest.test_case "simultaneous completions in serve order" `Quick
            test_simultaneous_completions_resume_in_serve_order;
        ] );
      ( "inline",
        [
          Alcotest.test_case "lone execute adds no event" `Quick test_lone_execute_inline;
          Alcotest.test_case "due event runs before the execute returns" `Quick
            test_due_event_runs_before_execute_returns;
          Alcotest.test_case "execute past the horizon waits" `Quick
            test_execute_past_horizon_waits;
          Alcotest.test_case "execute outside a process raises" `Quick
            test_execute_outside_process_raises;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "work by kind" `Quick test_work_accounting_by_kind;
          Alcotest.test_case "runnable count" `Quick test_runnable_count;
          Alcotest.test_case "uniform serve allocation" `Quick
            test_uniform_serve_allocation;
        ] );
      ("properties", qsuite);
    ]
