(* Tests for the weighted processor-sharing SMT execution model. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

let check_i64 = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_core ?(smt_width = 2) f =
  let params = { Params.default with Params.smt_width } in
  let sim = Sim.create () in
  let core = Smt_core.create sim params in
  f sim core

(* Run [cycles] of work for [ptid] on a fresh slot and record the
   completion time. *)
let job sim core ~ptid ?(kind = Smt_core.Useful) ?(weight = 1.0) ?(start = 0) cycles finished =
  let slot = Smt_core.add_slot core ~ptid in
  Sim.spawn sim (fun () ->
      Sim.delay start;
      Smt_core.set_runnable core ~slot ~weight true;
      Smt_core.execute core ~slot ~kind cycles;
      Smt_core.set_runnable core ~slot ~weight false;
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
      let slot = Smt_core.add_slot core ~ptid:1 in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~slot ~weight:1.0 true;
          Smt_core.execute core ~slot ~kind:Smt_core.Useful 1000;
          t := Sim.now ());
      (* Freeze from 200 to 700. *)
      Sim.schedule sim ~at:200 (fun () ->
          Smt_core.set_runnable core ~slot ~weight:1.0 false);
      Sim.schedule sim ~at:700 (fun () ->
          Smt_core.set_runnable core ~slot ~weight:1.0 true);
      Sim.run sim;
      check_i64 "paused 500 cycles" 1500 !t)

let test_zero_cycles_returns_immediately () =
  with_core (fun sim core ->
      let t = ref (-1) in
      let slot = Smt_core.add_slot core ~ptid:1 in
      Sim.spawn sim (fun () ->
          Smt_core.execute core ~slot ~kind:Smt_core.Useful 0;
          t := Sim.now ());
      Sim.run sim;
      check_i64 "no time consumed" 0 !t)

let test_execute_requires_runnable () =
  with_core (fun sim core ->
      let raised = ref false in
      let slot = Smt_core.add_slot core ~ptid:9 in
      Sim.spawn sim (fun () ->
          match Smt_core.execute core ~slot ~kind:Smt_core.Useful 10 with
          | () -> ()
          | exception Invalid_argument _ -> raised := true);
      Sim.run sim;
      check_bool "rejected" true !raised)

let test_double_execute_rejected () =
  with_core (fun sim core ->
      let raised = ref false in
      let slot = Smt_core.add_slot core ~ptid:1 in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~slot ~weight:1.0 true;
          Smt_core.execute core ~slot ~kind:Smt_core.Useful 100);
      Sim.spawn sim (fun () ->
          Sim.delay 10;
          match Smt_core.execute core ~slot ~kind:Smt_core.Useful 100 with
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
      let s1 = Smt_core.add_slot core ~ptid:1 and s2 = Smt_core.add_slot core ~ptid:2 in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~slot:s1 ~weight:1.0 true;
          Smt_core.set_runnable core ~slot:s2 ~weight:1.0 true;
          Alcotest.(check int) "two runnable" 2 (Smt_core.runnable_count core);
          Smt_core.set_runnable core ~slot:s1 ~weight:1.0 false;
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
      let core = Smt_core.create sim params in
      let completions = List.map (fun _ -> ref 0) cycles_list in
      List.iteri
        (fun i cycles ->
          let t = List.nth completions i in
          let slot = Smt_core.add_slot core ~ptid:i in
          Sim.spawn sim (fun () ->
              Smt_core.set_runnable core ~slot ~weight:1.0 true;
              Smt_core.execute core ~slot ~kind:Smt_core.Useful cycles;
              Smt_core.set_runnable core ~slot ~weight:1.0 false;
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
        let slot = Smt_core.add_slot core ~ptid in
        Sim.spawn sim (fun () ->
            Smt_core.set_runnable core ~slot ~weight:1.0 true;
            Smt_core.execute core ~slot ~kind:Smt_core.Useful 600;
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

(* What a job set leaves behind, floats as their bits. *)
type outcome = {
  done_at : int list;  (* by job *)
  wakes : int list;  (* jobs in the order their executes returned *)
  billed : int64 list;  (* by job *)
  bill : (int * int64) list;  (* [billed_threads], without the idle slot *)
  work : int64 list;  (* useful, poll, overhead *)
  busy : int64;
  events : int;
}

(* The calls a job set makes, so that one runs on [Smt_core] and on
   its reference model alike. *)
module type CORE = sig
  type t

  val create : Sim.t -> Params.t -> t
  val add_slot : t -> ptid:int -> int
  val set_runnable : t -> slot:int -> weight:float -> bool -> unit
  val execute : t -> slot:int -> kind:Smt_core.kind -> int -> unit
  val busy_capacity_cycles : t -> float
  val work_done : t -> Smt_core.kind -> float
  val thread_cycles : t -> slot:int -> float
  val billed_threads : t -> (int * float) list
end

(* Job [i] runs at [weight i]. *)
let run_job_set (module C : CORE) ~width ~weight jobs =
  let params = { Params.default with Params.smt_width = width } in
  let sim = Sim.create () in
  let core = C.create sim params in
  let n = List.length jobs in
  let state = Array.make n 0 (* 0 waiting, 1 executing, 2 done *) in
  let done_at = Array.make n (-1) in
  let wakes = ref [] in
  let slots = Array.init n (fun ptid -> C.add_slot core ~ptid) in
  (* A slot runnable throughout that never runs: water-filling must
     leave its position out, and [billed_threads] must not list it. *)
  C.set_runnable core ~slot:(C.add_slot core ~ptid:n) ~weight:1.0 true;
  List.iteri
    (fun ptid j ->
      let slot = slots.(ptid) and weight = weight ptid in
      Sim.spawn sim (fun () ->
          Sim.delay j.start;
          C.set_runnable core ~slot ~weight true;
          state.(ptid) <- 1;
          C.execute core ~slot ~kind:j.kind j.cycles;
          state.(ptid) <- 2;
          done_at.(ptid) <- Sim.now ();
          wakes := ptid :: !wakes;
          C.set_runnable core ~slot ~weight false);
      List.iter
        (fun (off, len) ->
          Sim.schedule sim ~at:(j.start + off) (fun () ->
              if state.(ptid) = 1 then begin
                C.set_runnable core ~slot ~weight false;
                Sim.schedule sim ~at:(Sim.time sim + len) (fun () ->
                    C.set_runnable core ~slot ~weight true)
              end))
        j.toggles)
    jobs;
  Sim.run sim;
  let bits = Int64.bits_of_float in
  {
    done_at = Array.to_list done_at;
    wakes = List.rev !wakes;
    billed = Array.to_list (Array.map (fun slot -> bits (C.thread_cycles core ~slot)) slots);
    bill = List.map (fun (ptid, c) -> (ptid, bits c)) (C.billed_threads core);
    work =
      List.map
        (fun k -> bits (C.work_done core k))
        [ Smt_core.Useful; Smt_core.Poll; Smt_core.Overhead ];
    busy = bits (C.busy_capacity_cycles core);
    events = Sim.events_processed sim;
  }

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
      let sums weight =
        let o = run_job_set (module Smt_core) ~width ~weight:(fun _ -> weight) jobs in
        (o.done_at, o.billed, o.work, o.busy)
      in
      sums 1.0 = sums 2.0)

(* [Smt_core] against [Smt_core_ref], the serve pass that completed
   each job through a call inside it: random job sets with a weight
   per job from 1.0, 2.0 and 0.25 (unit sets take the uniform path,
   mixed ones water-fill and cap), mixed kinds and stop/start toggles
   must leave the same completion ticks, wake order, billing (the
   threads [billed_threads] lists too, which leave out a slot that
   never ran), work by kind, busy capacity and event count.  A
   completion list walked newest first fails it. *)
let prop_serve_pass_matches_reference =
  let open QCheck.Gen in
  (* Starts and lengths drawn from a few round values as often as not,
     so that jobs finish in the same advance and their wake order
     shows. *)
  let round bound few = oneof [ int_range 1 bound; oneofl few ] in
  let job =
    map4
      (fun start cycles kind toggles -> { start; cycles; kind; toggles })
      (round 2000 [ 0; 0; 500; 1000 ])
      (round 3000 [ 100; 400; 400; 1000 ])
      (oneofl [ Smt_core.Useful; Smt_core.Poll; Smt_core.Overhead ])
      (list_size (int_bound 2) (pair (round 1500 [ 100; 200 ]) (round 800 [ 50; 100 ])))
  in
  (* Half the sets at unit weights, which serve on the uniform path
     while nothing is frozen. *)
  let weights =
    oneof [ return (List.init 40 (fun _ -> 1.0)); list_repeat 40 (oneofl [ 1.0; 2.0; 0.25 ]) ]
  in
  let gen = pair (pair (int_range 1 4) (list_size (int_range 1 40) job)) weights in
  QCheck.Test.make ~name:"serve pass matches the reference model bit for bit"
    ~count:300 (QCheck.make gen) (fun ((width, jobs), weights) ->
      let weight i = List.nth weights i in
      run_job_set (module Smt_core) ~width ~weight jobs
      = run_job_set (module Smt_core_ref) ~width ~weight jobs)

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
      let slot = Smt_core.add_slot core ~ptid:1 in
      Sim.spawn sim (fun () ->
          Sim.delay 7;
          Smt_core.set_runnable core ~slot ~weight:1.0 true;
          Smt_core.execute core ~slot ~kind:Smt_core.Useful cycles;
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
        let slot = Smt_core.add_slot core ~ptid:1 in
        Sim.spawn sim (fun () ->
            Smt_core.set_runnable core ~slot ~weight:1.0 true;
            Smt_core.execute core ~slot ~kind:Smt_core.Useful 100;
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
      let slot = Smt_core.add_slot core ~ptid:1 in
      Sim.spawn sim (fun () ->
          Smt_core.set_runnable core ~slot ~weight:1.0 true;
          Smt_core.execute core ~slot ~kind:Smt_core.Useful 100;
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
  let execute core slot () = Smt_core.execute core ~slot ~kind:Smt_core.Useful 10 in
  with_core (fun sim core ->
      let slot = Smt_core.add_slot core ~ptid:1 in
      Smt_core.set_runnable core ~slot ~weight:1.0 true;
      Sim.schedule sim ~at:5 (execute core slot);
      check_bool "from a callback on an idle world" true (raises_unhandled sim));
  with_core (fun sim core ->
      let slot = Smt_core.add_slot core ~ptid:1 in
      Smt_core.set_runnable core ~slot ~weight:1.0 true;
      Sim.spawn sim (fun () ->
          execute core slot ();
          failwith "escaped");
      (match Sim.run sim with
       | () -> Alcotest.fail "the exception did not escape"
       | exception Failure _ -> ());
      Sim.schedule sim ~at:(Sim.time sim + 5) (execute core slot);
      check_bool "after a process's exception escaped" true (raises_unhandled sim))

(* A lone spin's gaps are added one at a time, as the executes they
   stand for add them.  Pinned where the order shows: busy at 2^53 - 1
   on a 1-wide core, then 1-cycle gaps until a callback at 2^53 + 3.
   From 2^53 on doubles are 2 apart, so each 1-cycle addition rounds
   back to 2^53 (ties to even): the two gaps served in one call leave
   every sum at 2^53, as the plain loop of executes does, where one
   addition of both would land on 2^53 + 2 and the last gap then on
   2^53 + 4.  A sum that is whole below 2^53, or a few ulps off whole
   (which is all a finished job leaves behind), ended the same either
   way in every case tried, so only a pinned case like this one tells
   them apart. *)
let test_lone_gaps_add_one_at_a_time () =
  let big = (1 lsl 53) - 1 in
  let world ~spin =
    with_core ~smt_width:1 (fun sim core ->
        let flag = ref false in
        Sim.schedule sim ~at:(big + 4) (fun () -> flag := true);
        let slot = Smt_core.add_slot core ~ptid:1 in
        Sim.spawn sim (fun () ->
            Smt_core.set_runnable core ~slot ~weight:1.0 true;
            Smt_core.execute core ~slot ~kind:Smt_core.Poll big;
            while not !flag do
              if spin then Smt_core.serve_lone_gaps core ~slot ~kind:Smt_core.Poll 1;
              Smt_core.execute core ~slot ~kind:Smt_core.Poll 1
            done);
        Sim.run sim;
        let bits = Int64.bits_of_float in
        [
          Int64.of_int (Sim.time sim);
          Int64.of_int (Sim.events_processed sim);
          bits (Smt_core.busy_capacity_cycles core);
          bits (Smt_core.work_done core Smt_core.Poll);
          bits (Smt_core.thread_cycles core ~slot);
        ])
  in
  let spun = world ~spin:true in
  Alcotest.(check (list int64))
    "same clock, events and sums as the executes" (world ~spin:false) spun;
  let whole = Int64.bits_of_float (Float.of_int (1 lsl 53)) in
  Alcotest.(check (list int64))
    "every sum at 2^53" [ Int64.of_int (big + 4); 8L; whole; whole; whole ] spun

(* 64 threads time-share a 2-wide core, 200 executes each, thread [p]
   at [weight p].  At unit weights every advance serves up to 64 jobs
   on the uniform path (also the microbench kernel "smt_core 64
   unit-weight jobs x200 executes"); at weights 1.0 and 2.0 every
   advance and every next completion water-fill (n > width). *)
let churn ~weight () =
  let params = { Params.default with Params.smt_width = 2 } in
  let sim = Sim.create () in
  let core = Smt_core.create sim params in
  for p = 0 to 63 do
    let cycles = 50 + (p * 37 mod 101) and weight = weight p in
    let slot = Smt_core.add_slot core ~ptid:p in
    Sim.spawn sim (fun () ->
        Smt_core.set_runnable core ~slot ~weight true;
        for _ = 1 to 200 do
          Smt_core.execute core ~slot ~kind:Smt_core.Useful cycles
        done)
  done;
  Sim.run sim

(* Minor words per [execute] of [churn ~weight], measured on the second
   run, so one-off growth of the core's arrays does not count. *)
let check_words_per_execute ~weight =
  churn ~weight ();
  let before = Gc.minor_words () in
  churn ~weight ();
  let per_execute = (Gc.minor_words () -. before) /. float_of_int (64 * 200) in
  check_bool
    (Printf.sprintf "%.1f minor words per execute < 4" per_execute)
    true (per_execute < 4.0)

(* The serve loop must not allocate per served job.  The [zero-alloc]
   static rule cannot see a float boxed at a non-inlined call, which is
   how ~4 words per served job once crept in; this bound can.  What is
   left per [execute] (2.5 words on OCaml 5.1) is the suspension's
   continuation: every completion event is the core's one closure,
   tagged with its epoch.  The bound fails if each completion event
   captures its epoch in a closure of its own again (12.6 words), if
   [busy] or [min_rem] is boxed again on every store, or if [execute]
   goes back to [Sim.await]. *)
let test_uniform_serve_allocation () = check_words_per_execute ~weight:(fun _ -> 1.0)

(* Water-filling builds nothing: its rounds are loops over the runnable
   array, with the capacity and the weight sum in locals.  What is
   left per [execute] is the suspension's continuation, as on the
   uniform path (2.4 words on OCaml 5.1).  The reference model, whose
   [compute_rates] builds three closures and their cells on every
   call, reads 59.8. *)
let test_weighted_serve_allocation () =
  check_words_per_execute ~weight:(fun p -> if p land 1 = 0 then 1.0 else 2.0)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_work_conservation;
        prop_uniform_path_matches_water_filling;
        prop_serve_pass_matches_reference;
      ]
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
          Alcotest.test_case "lone gaps add one at a time" `Quick
            test_lone_gaps_add_one_at_a_time;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "work by kind" `Quick test_work_accounting_by_kind;
          Alcotest.test_case "runnable count" `Quick test_runnable_count;
          Alcotest.test_case "uniform serve allocation" `Quick
            test_uniform_serve_allocation;
          Alcotest.test_case "weighted serve allocation" `Quick
            test_weighted_serve_allocation;
        ] );
      ("properties", qsuite);
    ]
