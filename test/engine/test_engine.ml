(* Tests for the discrete-event engine: ordering, processes, primitives. *)

module Sim = Sl_engine.Sim
module Ivar = Sl_engine.Ivar
module Mailbox = Sl_engine.Mailbox
module Wheel = Sl_engine.Wheel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Pqueue --- *)

let test_pqueue_order () =
  let q = Pqueue.create ~dummy:"" in
  Pqueue.push q ~time:5 ~seq:1 "a";
  Pqueue.push q ~time:3 ~seq:2 "b";
  Pqueue.push q ~time:5 ~seq:0 "c";
  Pqueue.push q ~time:1 ~seq:9 "d";
  let order = List.init 4 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "pop order" [ "d"; "b"; "c"; "a" ] order;
  check_bool "empty" true (Pqueue.is_empty q)

let test_pqueue_seq_tiebreak () =
  let q = Pqueue.create ~dummy:0 in
  for i = 0 to 99 do
    Pqueue.push q ~time:7 ~seq:i i
  done;
  for i = 0 to 99 do
    match Pqueue.pop q with
    | Some (t, v) ->
      check_int "time" 7 t;
      check_int "fifo within same time" i v
    | None -> Alcotest.fail "queue exhausted early"
  done

(* Random interleaving of pushes and pops checked move-by-move against a
   naive list model with the same (time, seq) order.  Exercises the
   slot-clearing pop and the grow path together. *)
let test_pqueue_model_interleaved () =
  let rng = Sl_util.Rng.create 2024L in
  let q = Pqueue.create ~dummy:(-1) in
  let model = ref [] in
  let seq = ref 0 in
  let model_min () =
    List.fold_left
      (fun acc ((t, s, _) as e) ->
        match acc with
        | Some (t', s', _) when t' < t || (t' = t && s' < s) ->
          acc
        | _ -> Some e)
      None !model
  in
  let pop_both () =
    match (Pqueue.pop q, model_min ()) with
    | None, None -> ()
    | Some (t, v), Some (mt, ms, mv) ->
      check_int "model time" mt t;
      check_int "model payload" mv v;
      model := List.filter (fun (_, s, _) -> s <> ms) !model
    | Some _, None -> Alcotest.fail "queue has elements the model lacks"
    | None, Some _ -> Alcotest.fail "queue lost elements the model kept"
  in
  for _ = 1 to 10_000 do
    if !model = [] || Sl_util.Rng.int rng 3 > 0 then begin
      let time = Sl_util.Rng.int rng 64 in
      Pqueue.push q ~time ~seq:!seq !seq;
      model := (time, !seq, !seq) :: !model;
      incr seq
    end
    else pop_both ()
  done;
  while not (Pqueue.is_empty q) do
    pop_both ()
  done;
  check_bool "model drained too" true (!model = [])

(* Popped payloads must be collectable while the queue object lives on:
   pop clears its slot instead of leaving the boxed entry behind in the
   backing array. *)
let test_pqueue_pop_releases_payload () =
  let q = Pqueue.create ~dummy:(ref (-1)) in
  let n = 64 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set w i (Some payload);
    Pqueue.push q ~time:i ~seq:i payload
  done;
  (* Pop the first half; those payloads must die, the rest must survive. *)
  for _ = 1 to n / 2 do
    ignore (Pqueue.pop q : (int * int ref) option)
  done;
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to (n / 2) - 1 do
    check_bool (Printf.sprintf "popped payload %d collected" i) false
      (Weak.check w i)
  done;
  for i = n / 2 to n - 1 do
    check_bool (Printf.sprintf "queued payload %d alive" i) true (Weak.check w i)
  done;
  ignore (Sys.opaque_identity q)

let test_pqueue_random_sorted () =
  let rng = Sl_util.Rng.create 42L in
  let q = Pqueue.create ~dummy:() in
  for i = 0 to 999 do
    Pqueue.push q ~time:(Sl_util.Rng.int rng 500) ~seq:i ()
  done;
  let last = ref (-1) in
  let n = ref 0 in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (t, ()) ->
      check_bool "non-decreasing" true (t >= !last);
      last := t;
      incr n;
      drain ()
  in
  drain ();
  check_int "all popped" 1000 !n

(* The heap's (time, seq) comparison must stay lexicographic at the
   extremes of the tick range — a packed single-int key of the form
   [time lsl k lor seq] (the design pqueue.ml rejects) would corrupt
   exactly these cases. *)
let test_pqueue_order_at_tick_boundaries () =
  let q = Pqueue.create ~dummy:"" in
  Pqueue.push q ~time:Sim.Time.max_tick ~seq:0 "max-early-seq";
  Pqueue.push q ~time:0 ~seq:max_int "zero-late-seq";
  Pqueue.push q ~time:Sim.Time.max_tick ~seq:max_int "max-late-seq";
  Pqueue.push q ~time:0 ~seq:0 "zero-early-seq";
  Pqueue.push q ~time:1 ~seq:17 "one";
  let order = List.init 5 (fun _ -> Pqueue.pop_min q) in
  Alcotest.(check (list string)) "lexicographic at extremes"
    [ "zero-early-seq"; "zero-late-seq"; "one"; "max-early-seq"; "max-late-seq" ]
    order

(* --- Sim basics --- *)

let test_delay_advances_clock () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay 10;
      seen := Sim.now () :: !seen;
      Sim.delay 5;
      seen := Sim.now () :: !seen);
  Sim.run sim;
  Alcotest.(check (list int)) "times" [ 15; 10 ] !seen;
  check_int "final time" 15 (Sim.time sim)

let test_fork_runs_after_parent_blocks () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      log := "parent-before" :: !log;
      Sim.fork (fun () -> log := "child" :: !log);
      log := "parent-after" :: !log;
      Sim.delay 1;
      log := "parent-resumed" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "order"
    [ "parent-resumed"; "child"; "parent-after"; "parent-before" ]
    !log

let test_run_until_horizon () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      let rec tick () =
        Sim.delay 10;
        incr count;
        tick ()
      in
      tick ());
  Sim.run ~until:100 sim;
  check_int "ten ticks" 10 !count;
  check_int "clock parked at horizon" 100 (Sim.time sim)

let test_run_until_parks_after_drain () =
  (* Regression: when the queue drains before the horizon is reached, the
     clock must still park at the horizon, so both bounded-run endings
     (events beyond the horizon, queue empty) read the same time. *)
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 10);
  Sim.run ~until:100 sim;
  check_int "parked at horizon though queue drained" 100 (Sim.time sim);
  (* A horizon already in the past must never move the clock backwards. *)
  Sim.run ~until:50 sim;
  check_int "clock never moves backwards" 100 (Sim.time sim)

let test_schedule_callback () =
  let sim = Sim.create () in
  let fired = ref (-1) in
  Sim.schedule sim ~at:42 (fun () -> fired := Sim.time sim);
  Sim.run sim;
  check_int "fired at 42" 42 !fired

let test_schedule_past_rejected () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay 10);
  Sim.run sim;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule: time in the past")
    (fun () -> Sim.schedule sim ~at:5 (fun () -> ()))

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.spawn sim (fun () ->
        Sim.delay 5;
        log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] !log

(* Each tagged callback reads its own tag wherever its event waited:
   on the ready chain (pushed for the current tick, from outside the run
   and from a callback), in a level chain (5 alone in its slot; 100 and
   101 share a level-1 slot and cascade into level 0), and in the far
   list (more than 2^25 ticks ahead).  An untagged event between them
   reads 0, not the tag popped before it. *)
let test_event_tag_own_tag () =
  let sim = Sim.create () in
  let log = ref [] in
  let note () = log := (Sim.now (), Sim.event_tag sim) :: !log in
  let far = (1 lsl 25) + 7 in
  Sim.schedule_tagged sim ~at:0 ~tag:11 (fun () ->
      note ();
      Sim.schedule_tagged sim ~at:0 ~tag:(-7) note;
      Sim.schedule sim ~at:0 note);
  List.iter
    (fun (at, tag) -> Sim.schedule_tagged sim ~at ~tag note)
    [ (5, 12); (101, 14); (far, 15) ];
  Sim.schedule sim ~at:100 note;
  Sim.schedule_tagged sim ~at:100 ~tag:13 note;
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "each callback's own tag"
    [ (0, 11); (0, -7); (0, 0); (5, 12); (100, 0); (100, 13); (101, 14); (far, 15) ]
    (List.rev !log)

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      match Sim.delay (-1) with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Sim.run sim;
  check_bool "raised" true !raised

(* [now + d] must not wrap past [Time.max_tick]: such a delay is rejected
   like a negative one, while a delay landing exactly on max_tick runs. *)
let test_delay_past_max_tick_rejected () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay 10;
      (match Sim.delay max_int with
       | () -> log := Printf.sprintf "resumed at %d" (Sim.now ()) :: !log
       | exception Invalid_argument _ -> log := Printf.sprintf "rejected at %d" (Sim.now ()) :: !log);
      Sim.delay (Sim.Time.max_tick - 10);
      log := Printf.sprintf "at max_tick: %b" (Sim.now () = Sim.Time.max_tick) :: !log);
  Sim.run sim;
  Alcotest.(check (list string))
    "rejected, then max_tick reached" [ "rejected at 10"; "at max_tick: true" ] (List.rev !log)

(* --- Continuing inline: a wait with nothing else due (Sim.skip_to) --- *)

(* A callback every tick up to [until]: an event is always due, so no
   positive wait can continue inline.  A callback, not a process, so it
   never continues inline itself. *)
let heartbeat sim ~until =
  let rec beat () =
    let now = Sim.time sim in
    if now < until then Sim.schedule sim ~at:(now + 1) beat
  in
  Sim.schedule sim ~at:0 beat

(* A lone process on an idle world continues inline through its delays:
   the clock moves as before, and the start is the only event.  With the
   heartbeat each delay is one hop again. *)
let test_lone_delay_inline () =
  let lone ~beat =
    let sim = Sim.create () in
    if beat then heartbeat sim ~until:100;
    let seen = ref [] in
    Sim.spawn sim (fun () ->
        for _ = 1 to 3 do
          Sim.delay 10;
          seen := Sim.now () :: !seen
        done);
    Sim.run sim;
    (List.rev !seen, Sim.events_processed sim)
  in
  Alcotest.(check (pair (list int) int)) "idle world" ([ 10; 20; 30 ], 1) (lone ~beat:false);
  Alcotest.(check (pair (list int) int))
    "101 beats, the start and three hops" ([ 10; 20; 30 ], 105) (lone ~beat:true)

(* An event pushed earlier for a tick at or before the delay's end runs
   before the delay returns; one a tick later runs after, and the delay
   then continued inline (two events: the start and the callback). *)
let test_due_event_runs_before_delay_returns () =
  let order at =
    let sim = Sim.create () in
    let log = ref [] in
    let note what = log := Printf.sprintf "%s@%d" what (Sim.time sim) :: !log in
    Sim.schedule sim ~at (fun () -> note "callback");
    Sim.spawn sim (fun () ->
        Sim.delay 10;
        note "returned");
    Sim.run sim;
    (List.rev !log, Sim.events_processed sim)
  in
  let check = Alcotest.(check (pair (list string) int)) in
  check "before" ([ "callback@9"; "returned@10" ], 3) (order 9);
  check "at the same tick" ([ "callback@10"; "returned@10" ], 3) (order 10);
  check "after" ([ "returned@10"; "callback@11" ], 2) (order 11)

(* A delay that ends past the run's horizon is not taken inline: the
   process waits with the clock at the horizon, and the next run ends
   the delay on time. *)
let test_delay_past_horizon_waits () =
  let sim = Sim.create () in
  let returned = ref (-1) in
  Sim.spawn sim (fun () ->
      Sim.delay 100;
      returned := Sim.now ());
  Sim.run ~until:60 sim;
  check_int "clock at the horizon" 60 (Sim.time sim);
  check_int "still waiting" (-1) !returned;
  Sim.run sim;
  check_int "returned at its tick" 100 !returned

let raises_unhandled sim =
  match Sim.run sim with () -> false | exception Effect.Unhandled _ -> true

(* Outside a process a delay has nothing to suspend, even with nothing
   else due: it raises as it always did, also in a run after one that a
   process's exception escaped. *)
let test_delay_outside_process_raises () =
  let sim = Sim.create () in
  Sim.schedule sim ~at:5 (fun () -> Sim.delay 10);
  check_bool "from a callback on an idle world" true (raises_unhandled sim);
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Sim.delay 3;
      failwith "escaped");
  (match Sim.run sim with
   | () -> Alcotest.fail "the exception did not escape"
   | exception Failure _ -> ());
  Sim.schedule sim ~at:(Sim.time sim + 5) (fun () -> Sim.delay 10);
  check_bool "after a process's exception escaped" true (raises_unhandled sim)

(* --- Ivar --- *)

let test_ivar_fill_wakes_readers () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let results = ref [] in
  for _ = 1 to 3 do
    Sim.spawn sim (fun () ->
        (* Bind first: [!results] must be read *after* the blocking read. *)
        let v = Ivar.read iv in
        results := v :: !results)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay 7;
      Ivar.fill iv 99);
  Sim.run sim;
  Alcotest.(check (list int)) "all readers woke" [ 99; 99; 99 ] !results

let test_ivar_read_after_fill_immediate () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  Ivar.fill iv "x";
  let got = ref "" in
  Sim.spawn sim (fun () -> got := Ivar.read iv);
  Sim.run sim;
  Alcotest.(check string) "value" "x" !got

let test_ivar_double_fill_rejected () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill fails" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill" (Invalid_argument "Ivar.fill: already full") (fun () ->
      Ivar.fill iv 3);
  Alcotest.(check (option int)) "peek" (Some 1) (Ivar.peek iv)

(* Readers wake in the order they began to read, not in spawn order,
   each at the fill's tick. *)
let test_ivar_readers_wake_in_registration_order () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let woke = ref [] in
  List.iter
    (fun (name, at) ->
      Sim.spawn sim (fun () ->
          Sim.delay at;
          Ivar.read iv;
          woke := (name, Sim.now ()) :: !woke))
    [ ("a", 3); ("b", 1); ("c", 4); ("d", 2) ];
  Sim.spawn sim (fun () ->
      Sim.delay 10;
      Ivar.fill iv ());
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "registration order" [ ("b", 10); ("d", 10); ("a", 10); ("c", 10) ] (List.rev !woke)

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Sim.spawn sim (fun () ->
      Mailbox.send mb 1;
      Sim.delay 2;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo order" [ 3; 2; 1 ] !got

let test_mailbox_blocking_recv () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let at = ref 0 in
  Sim.spawn sim (fun () ->
      let _ = Mailbox.recv mb in
      at := Sim.now ());
  Sim.spawn sim (fun () ->
      Sim.delay 25;
      Mailbox.send mb ());
  Sim.run sim;
  check_int "received at send time" 25 !at

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
  Mailbox.send mb 5;
  Alcotest.(check (option int)) "item" (Some 5) (Mailbox.try_recv mb);
  check_int "length" 0 (Mailbox.length mb)

(* A one-token mailbox is a mutex: receiving takes the token, sending
   it back hands it to the longest-blocked receiver. *)
let test_mailbox_one_token_mutual_exclusion () =
  let sim = Sim.create () in
  let token = Mailbox.create () in
  Mailbox.send token ();
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    Sim.spawn sim (fun () ->
        Mailbox.recv token;
        incr inside;
        max_inside := max !max_inside !inside;
        Sim.delay 10;
        decr inside;
        Mailbox.send token ())
  done;
  Sim.run sim;
  check_int "never two inside" 1 !max_inside;
  check_int "serialized" 40 (Sim.time sim)

let test_mailbox_fifo_wakeup () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Mailbox.recv mb;
        order := i :: !order)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay 1;
      for _ = 1 to 3 do
        Mailbox.send mb ()
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 3; 2; 1 ] !order

(* A receiver that timed out leaves nothing behind: a message sent later
   goes to the receiver queued after it, not to the dead waiter. *)
let test_mailbox_recv_for_timeout () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let timed_out = ref (Some (-1)) and timed_out_at = ref 0 in
  let got = ref 0 and got_at = ref 0 in
  Sim.spawn sim (fun () ->
      timed_out := Mailbox.recv_for mb ~within:30;
      timed_out_at := Sim.now ());
  Sim.spawn sim (fun () ->
      Sim.delay 40;
      got := Mailbox.recv mb;
      got_at := Sim.now ());
  Sim.spawn sim (fun () ->
      Sim.delay 50;
      Mailbox.send mb 7);
  Sim.run sim;
  Alcotest.(check (option int)) "gave up" None !timed_out;
  check_int "at within" 30 !timed_out_at;
  check_int "next recv got it" 7 !got;
  check_int "at send time" 50 !got_at

(* A receiver that gives up leaves the queue from the middle: the
   receivers parked before and after it keep their order, and so do
   the items sent once it has gone. *)
let test_mailbox_recv_for_leaves_in_order () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  let receiver name recv =
    Sim.spawn sim (fun () ->
        let v = recv () in
        got := (name, v, Sim.now ()) :: !got)
  in
  receiver "a" (fun () -> Some (Mailbox.recv mb));
  receiver "b" (fun () -> Mailbox.recv_for mb ~within:5);
  receiver "c" (fun () -> Some (Mailbox.recv mb));
  receiver "d" (fun () -> Mailbox.recv_for mb ~within:50);
  Sim.spawn sim (fun () ->
      Sim.delay 10;
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Sim.run sim;
  Alcotest.(check (list (triple string (option int) int)))
    "b gave up at 5; a, c and d took 1, 2 and 3 at 10"
    [ ("b", None, 5); ("a", Some 1, 10); ("c", Some 2, 10); ("d", Some 3, 10) ]
    (List.rev !got)

(* --- Trace --- *)

let test_trace_records_with_timestamps () =
  let sim = Sim.create () in
  let trace = Sl_engine.Trace.create () in
  Sim.spawn sim (fun () ->
      Sl_engine.Trace.record trace sim "begin";
      Sim.delay 10;
      Sl_engine.Trace.record trace sim (Printf.sprintf "at %d" 10));
  Sim.run sim;
  Alcotest.(check (list (pair int string)))
    "events"
    [ (0, "begin"); (10, "at 10") ]
    (Sl_engine.Trace.events trace);
  check_int "length" 2 (Sl_engine.Trace.length trace)

let test_trace_ring_overwrites_oldest () =
  let sim = Sim.create () in
  let trace = Sl_engine.Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Sl_engine.Trace.record trace sim (string_of_int i)
  done;
  Alcotest.(check (list string))
    "keeps newest three"
    [ "3"; "4"; "5" ]
    (List.map snd (Sl_engine.Trace.events trace));
  check_int "total" 5 (Sl_engine.Trace.total_recorded trace);
  Sl_engine.Trace.clear trace;
  check_int "cleared" 0 (Sl_engine.Trace.length trace)

let test_trace_wraparound_boundary () =
  let sim = Sim.create () in
  let trace = Sl_engine.Trace.create ~capacity:4 () in
  for i = 1 to 4 do
    Sl_engine.Trace.record trace sim (string_of_int i)
  done;
  (* Exactly at capacity: nothing lost yet. *)
  check_int "length at capacity" 4 (Sl_engine.Trace.length trace);
  check_int "total at capacity" 4 (Sl_engine.Trace.total_recorded trace);
  Alcotest.(check (list string))
    "all retained" [ "1"; "2"; "3"; "4" ]
    (List.map snd (Sl_engine.Trace.events trace));
  (* One past capacity: the oldest falls off, total keeps counting. *)
  Sl_engine.Trace.record trace sim "5";
  check_int "length past capacity" 4 (Sl_engine.Trace.length trace);
  check_int "total past capacity" 5 (Sl_engine.Trace.total_recorded trace);
  Alcotest.(check (list string))
    "oldest dropped" [ "2"; "3"; "4"; "5" ]
    (List.map snd (Sl_engine.Trace.events trace))

let test_trace_wraparound_many_laps () =
  let sim = Sim.create () in
  let trace = Sl_engine.Trace.create ~capacity:4 () in
  for i = 1 to 11 do
    Sl_engine.Trace.record trace sim (string_of_int i)
  done;
  check_int "length" 4 (Sl_engine.Trace.length trace);
  check_int "total" 11 (Sl_engine.Trace.total_recorded trace);
  Alcotest.(check (list string))
    "newest four in order" [ "8"; "9"; "10"; "11" ]
    (List.map snd (Sl_engine.Trace.events trace))

let test_trace_clear_resets_wraparound () =
  let sim = Sim.create () in
  let trace = Sl_engine.Trace.create ~capacity:3 () in
  for i = 1 to 7 do
    Sl_engine.Trace.record trace sim (string_of_int i)
  done;
  Sl_engine.Trace.clear trace;
  check_int "cleared length" 0 (Sl_engine.Trace.length trace);
  check_int "cleared total" 0 (Sl_engine.Trace.total_recorded trace);
  Sl_engine.Trace.record trace sim "fresh";
  Alcotest.(check (list string))
    "usable after clear" [ "fresh" ]
    (List.map snd (Sl_engine.Trace.events trace))

(* --- Sim.stuck --- *)

let test_stuck_reports_abandoned_process () =
  let sim = Sim.create () in
  let ivar = Ivar.create () in
  Sim.spawn ~name:"server" sim (fun () ->
      Sim.delay 5;
      ignore (Ivar.read ivar : int));
  Sim.run sim;
  match Sim.stuck sim with
  | [ b ] ->
    Alcotest.(check (option string)) "name" (Some "server") b.Sim.name;
    check_int "blocked since" 5 b.Sim.blocked_since;
    let contains hay needle =
      let hn = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    (match Sim.stuck_summary sim with
    | Some s -> check_bool "summary mentions name" true (contains s "server")
    | None -> Alcotest.fail "expected a summary")
  | other -> Alcotest.failf "expected one stuck process, got %d" (List.length other)

let test_stuck_empty_when_all_resume () =
  let sim = Sim.create () in
  let ivar = Ivar.create () in
  Sim.spawn ~name:"reader" sim (fun () -> ignore (Ivar.read ivar : int));
  Sim.spawn sim (fun () ->
      Sim.delay 3;
      Ivar.fill ivar 42);
  Sim.run sim;
  Alcotest.(check int) "none stuck" 0 (List.length (Sim.stuck sim));
  Alcotest.(check (option string)) "no summary" None (Sim.stuck_summary sim)

let test_stuck_ignores_horizon_parked () =
  (* A process merely delayed past the run horizon still holds a queued
     event: it is paused, not abandoned. *)
  let sim = Sim.create () in
  Sim.spawn ~name:"sleeper" sim (fun () -> Sim.delay 1_000);
  Sim.run ~until:10 sim;
  Alcotest.(check int) "not stuck" 0 (List.length (Sim.stuck sim))

(* --- Sim.await resume guards --- *)

let resume_twice = Invalid_argument "Sim.await: resume called twice"

let test_await_resume_twice () =
  let sim = Sim.create () in
  let saved = ref (fun () -> ()) and woke = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.await (fun resume -> saved := resume);
      incr woke);
  Sim.run sim;
  !saved ();
  Alcotest.check_raises "second resume" resume_twice (fun () -> !saved ());
  Sim.run sim;
  check_int "woken once" 1 !woke

(* The resume of an earlier await, called while the process waits in a
   later one, is refused and leaves the later wait in place. *)
let test_await_stale_resume () =
  let sim = Sim.create () in
  let first = ref (fun () -> ()) and second = ref (fun () -> ()) in
  let rounds = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.await (fun resume -> first := resume);
      incr rounds;
      Sim.await (fun resume -> second := resume);
      incr rounds);
  Sim.run sim;
  !first ();
  Sim.run sim;
  check_int "in the second await" 1 !rounds;
  Alcotest.check_raises "stale resume" resume_twice (fun () -> !first ());
  Sim.run sim;
  check_int "still waiting" 1 (List.length (Sim.stuck sim));
  !second ();
  Sim.run sim;
  check_int "second await resumed" 2 !rounds

(* --- Sim.suspend / Sim.wake --- *)

let woken_twice = Invalid_argument "Sim.wake: no suspension to wake"

(* A waiting point whose registrar drops the waker: nothing can wake a
   process parked there. *)
let forever = Sim.suspension (fun _ -> ())

let test_wake_twice_rejected () =
  let sim = Sim.create () in
  let saved = ref (Sim.no_waker sim) and woke = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.suspend (Sim.suspension (fun w -> saved := w));
      incr woke);
  Sim.run sim;
  Sim.wake !saved;
  Alcotest.check_raises "second wake" woken_twice (fun () -> Sim.wake !saved);
  Sim.run sim;
  check_int "woken once" 1 !woke;
  Alcotest.check_raises "placeholder" woken_twice (fun () -> Sim.wake (Sim.no_waker sim))

(* A wake hops at the waker's current time, behind what that tick
   already holds, and a woken process can park at the same point
   again. *)
let test_wake_is_a_same_tick_hop () =
  let sim = Sim.create () in
  let cell = ref (Sim.no_waker sim) and log = ref [] in
  let point = Sim.suspension (fun w -> cell := w) in
  Sim.spawn sim (fun () ->
      for round = 1 to 2 do
        Sim.suspend point;
        log := Printf.sprintf "woke %d@%d" round (Sim.now ()) :: !log
      done);
  Sim.spawn sim (fun () ->
      for at = 1 to 2 do
        Sim.delay (at * 10 - Sim.now ());
        let w = !cell in
        cell := Sim.no_waker sim;
        Sim.wake w;
        Sim.schedule sim ~at:(Sim.now ()) (fun () -> log := "callback" :: !log)
      done);
  Sim.run sim;
  Alcotest.(check (list string))
    "order" [ "woke 1@10"; "callback"; "woke 2@20"; "callback" ] (List.rev !log)

(* A [schedule] callback of a run nested inside a process of another
   world: a block reaches the outer process's handler, and [fork] or
   [set_daemon] the world whose callback it is.  Each must refuse with
   [Invalid_argument] in the callback rather than park, fork into or
   mark the outer process, so that the inner run returns and the outer
   process finishes. *)
let test_calls_from_another_world_raise () =
  let foreign = "the process belongs to another world" in
  List.iter
    (fun (name, call, expected) ->
      let outer = Sim.create () and inner = Sim.create () in
      let refusal = ref "none" and returned = ref false in
      Sim.schedule inner ~at:5 (fun () ->
          match call () with () -> () | exception Invalid_argument msg -> refusal := msg);
      Sim.spawn outer (fun () ->
          Sim.run inner;
          returned := true);
      Sim.run outer;
      Alcotest.(check string) (name ^ ": refused in the callback") expected !refusal;
      check_bool (name ^ ": the inner run returned") true !returned;
      check_int (name ^ ": nothing stuck") 0 (List.length (Sim.stuck outer));
      check_int (name ^ ": no process forked") 1 (Sim.events_processed outer))
    [
      ("suspend", (fun () -> Sim.suspend forever), "Sim.suspend: " ^ foreign);
      ("await", (fun () -> Sim.await (fun _ -> ())), "Sim.suspend: " ^ foreign);
      ("delay", (fun () -> Sim.delay 3), "Sim.delay: " ^ foreign);
      ("fork", (fun () -> Sim.fork ignore), "Sim.fork: not called from a process");
      ( "set_daemon",
        (fun () -> Sim.set_daemon true),
        "Sim.set_daemon: not called from a process" );
    ]

let test_stuck_lists_suspended () =
  let sim = Sim.create () in
  Sim.spawn ~name:"parked" sim (fun () ->
      Sim.delay 7;
      Sim.suspend forever);
  Sim.run sim;
  match Sim.stuck sim with
  | [ b ] ->
    Alcotest.(check (option string)) "name" (Some "parked") b.Sim.name;
    check_int "blocked since" 7 b.Sim.blocked_since
  | other -> Alcotest.failf "expected one stuck process, got %d" (List.length other)

let test_suspects_skip_suspended_daemon () =
  let sim = Sim.create () in
  Sim.spawn ~name:"server" ~daemon:true sim (fun () -> Sim.suspend forever);
  Sim.spawn ~name:"client" sim (fun () ->
      Sim.delay 2;
      Sim.suspend forever);
  Sim.run sim;
  Alcotest.(check (list string))
    "stuck" [ "server"; "client" ]
    (List.filter_map (fun b -> b.Sim.name) (Sim.stuck sim));
  Alcotest.(check (list string))
    "suspects" [ "client" ]
    (List.filter_map (fun b -> b.Sim.name) (Sim.suspects sim))

(* Live processes form a ring in spawn order, and an exit unlinks its
   process wherever it sits: after exits out of spawn order, [stuck] and
   [suspects] still list what is left by pid. *)
let test_stuck_in_pid_order_after_exits () =
  let sim = Sim.create () in
  List.iter
    (fun (name, parks, daemon) ->
      Sim.spawn ~name ~daemon sim (fun () ->
          Sim.delay (10 - String.length name);
          if parks then Sim.suspend forever))
    [
      ("a", true, false);
      ("bb", false, false);
      ("ccc", true, true);
      ("dddd", false, false);
      ("eeeee", true, false);
      ("ffffff", false, false);
    ];
  Sim.run sim;
  let names l = List.filter_map (fun b -> b.Sim.name) l in
  Alcotest.(check (list string)) "stuck" [ "a"; "ccc"; "eeeee" ] (names (Sim.stuck sim));
  Alcotest.(check (list int))
    "pids" [ 1; 3; 5 ]
    (List.map (fun b -> b.Sim.pid) (Sim.stuck sim));
  Alcotest.(check (list string)) "suspects" [ "a"; "eeeee" ] (names (Sim.suspects sim))

(* An exception that escapes a process escapes the run and retires the
   process: it is gone from [stuck], and the world's next process runs
   and marks itself with its own [set_daemon]. *)
let test_escaped_exception_retires_process () =
  let sim = Sim.create () in
  Sim.spawn ~name:"parked" sim (fun () -> Sim.suspend forever);
  Sim.spawn ~name:"raises" sim (fun () ->
      Sim.delay 1;
      failwith "boom");
  Alcotest.check_raises "escapes the run" (Failure "boom") (fun () -> Sim.run sim);
  Alcotest.(check (list string))
    "only the parked one is stuck" [ "parked" ]
    (List.filter_map (fun b -> b.Sim.name) (Sim.stuck sim));
  Sim.spawn ~name:"server" sim (fun () ->
      Sim.set_daemon true;
      Sim.suspend forever);
  Sim.run sim;
  Alcotest.(check (list string))
    "stuck" [ "parked"; "server" ]
    (List.filter_map (fun b -> b.Sim.name) (Sim.stuck sim));
  Alcotest.(check (list string))
    "the server marked itself" [ "parked" ]
    (List.filter_map (fun b -> b.Sim.name) (Sim.suspects sim))

(* [set_daemon] marks the process whose code runs: the one that resumed
   last, also after another process ran in between. *)
let test_set_daemon_marks_the_resumed_process () =
  let sim = Sim.create () in
  Sim.spawn ~name:"first" sim (fun () ->
      Sim.delay 5;
      Sim.set_daemon true;
      Sim.suspend forever);
  Sim.spawn ~name:"second" sim (fun () ->
      Sim.delay 3;
      Sim.suspend forever);
  Sim.run sim;
  Alcotest.(check (list string))
    "suspects" [ "second" ]
    (List.filter_map (fun b -> b.Sim.name) (Sim.suspects sim))

(* A world kept after its run (the bench hooks keep every world) must
   not keep the stack of a process parked for good alive: here nothing
   but that stack references [payload], and the registrar drops the
   waker. *)
let parked_stack_collected park =
  let sim = Sim.create () in
  let collected = ref false in
  Sim.spawn sim (fun () ->
      let payload = Bytes.make 64 'x' in
      Gc.finalise (fun _ -> collected := true) payload;
      park ();
      ignore (Sys.opaque_identity payload));
  Sim.run sim;
  Gc.full_major ();
  Gc.full_major ();
  check_int "still parked" 1 (List.length (Sim.stuck (Sys.opaque_identity sim)));
  !collected

let test_parked_stack_not_retained () =
  check_bool "suspend" true (parked_stack_collected (fun () -> Sim.suspend forever));
  check_bool "await" true (parked_stack_collected (fun () -> Sim.await (fun _ -> ())))

(* A mailbox keeps nothing it has let go of: vacated slots are
   re-seeded, so a handed item, a buffered item once taken, and the
   stacks of a receiver that took its item and of one that gave up are
   all collectable while the mailbox lives on. *)
let test_mailbox_keeps_nothing_taken () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let collected = ref 0 in
  let tracked () =
    let b = Bytes.make 64 'x' in
    Gc.finalise (fun _ -> incr collected) b;
    b
  in
  Sim.spawn sim (fun () ->
      let payload = tracked () in
      let item = Mailbox.recv mb in
      ignore (Sys.opaque_identity (payload, item)));
  Sim.spawn sim (fun () ->
      let payload = tracked () in
      ignore (Sys.opaque_identity (Mailbox.recv_for mb ~within:10, payload)));
  Sim.spawn sim (fun () ->
      Sim.delay 5;
      Mailbox.send mb (tracked ());
      Sim.delay 100;
      Mailbox.send mb (tracked ());
      ignore (Sys.opaque_identity (Mailbox.try_recv mb)));
  Sim.run sim;
  Gc.full_major ();
  Gc.full_major ();
  check_int "nothing left in the mailbox" 0 (Mailbox.length (Sys.opaque_identity mb));
  check_int "two items and two receivers' stacks collected" 4 !collected

(* [fork] and [set_daemon] are plain calls on the running process:
   with none running, in a callback too, they raise. *)
let test_process_calls_outside_a_process_raise () =
  let refused call =
    match call () with () -> false | exception Invalid_argument _ -> true
  in
  let fork () = Sim.fork ignore and set_daemon () = Sim.set_daemon true in
  check_bool "fork, no world running" true (refused fork);
  check_bool "set_daemon, no world running" true (refused set_daemon);
  let sim = Sim.create () in
  let in_callback = ref [] in
  Sim.schedule sim ~at:3 (fun () -> in_callback := [ refused fork; refused set_daemon ]);
  Sim.run sim;
  Alcotest.(check (list bool)) "in a callback" [ true; true ] !in_callback;
  check_int "nothing forked" 1 (Sim.events_processed sim)

(* --- allocation --- *)

(* Words allocated per call of [op] inside one process, as the
   difference between two run lengths, so that world set-up cancels
   out.  With [wake], each [op] blocks until a second process, which
   delays a cycle before each call, calls [wake ()]: a ping-pong round,
   whose waker's delay blocks behind the woken process's hop.
   OCaml 5.1. *)
let words_per ?wake op =
  let run n =
    let sim = Sim.create () in
    Sim.spawn sim (fun () ->
        for _ = 1 to n do
          op ()
        done);
    Option.iter
      (fun wake ->
        Sim.spawn sim (fun () ->
            for _ = 1 to n do
              Sim.delay 1;
              wake ()
            done))
      wake;
    let before = Gc.minor_words () in
    Sim.run sim;
    Gc.minor_words () -. before
  in
  ignore (run 1_000 : float);
  (run 20_000 -. run 10_000) /. 10_000.0

(* One suspension, its registrar and resume closures, the value cell and
   the runtime's continuation: 19 words.  24 as its own effect, with a
   hop closure per resume. *)
let test_await_allocation () =
  let w = words_per (fun () -> Sim.await (fun resume -> resume ())) in
  check_bool (Printf.sprintf "%.1f minor words per await round trip < 21" w) true (w < 21.0)

(* The child's bookkeeping (its proc and parking records, the parking's
   hop closure), its start event and its continuation: 29 words.  41
   when the parking was built twice through a [let rec] and had a waker
   closure beside it, 69 when each process built its own handler record
   and closures, 86 with [fork] an effect. *)
let test_fork_allocation () =
  let w = words_per (fun () -> Sim.fork ignore) in
  check_bool
    (Printf.sprintf "%.1f minor words per fork with its child < 32" w)
    true (w < 32.0)

(* A plain call: 12 words as an effect. *)
let test_set_daemon_allocation () =
  let w = words_per (fun () -> Sim.set_daemon true) in
  check_bool (Printf.sprintf "%.1f minor words per set_daemon = 0" w) true (w = 0.0)

(* The ivar, its wait queue and the queue's one-slot ring, its [Some],
   and the continuations of the read and of the waker's delay: 19
   words.  20 when each read built a suspension and its registrar
   closure and kept the waker in a [One], 34 when [read] waited through
   [Sim.await]. *)
let test_ivar_round_trip_allocation () =
  let current = ref (Ivar.create ()) in
  let w =
    words_per
      ~wake:(fun () -> Ivar.fill !current ())
      (fun () ->
        current := Ivar.create ();
        Ivar.read !current)
  in
  check_bool (Printf.sprintf "%.1f minor words per ivar round trip < 20" w) true (w < 20.0)

(* The receiver parks on the mailbox's wait queue and the send hands
   it the item through a ring: the item's [Some] and the two
   continuations, 9 words.  27 when each blocked receive waited on an
   ivar of its own in a queue cell, 36 when it waited through
   [Sim.await]. *)
let test_mailbox_round_trip_allocation () =
  let mb = Mailbox.create () in
  let w = words_per ~wake:(fun () -> Mailbox.send mb ()) (fun () -> Mailbox.recv mb) in
  check_bool
    (Printf.sprintf "%.1f minor words per blocked recv and send < 10" w)
    true (w < 10.0)

(* A [recv_for] that the send beats: the blocked receive's words plus
   the give-up's two callbacks and the state they share with the
   receiver, 24 words.  36 with an ivar per receive, 106 when the
   timeout was a forked child that delayed. *)
let test_recv_for_round_trip_allocation () =
  let mb = Mailbox.create () in
  let w =
    words_per
      ~wake:(fun () -> Mailbox.send mb ())
      (fun () -> ignore (Mailbox.recv_for mb ~within:1_000 : unit option))
  in
  check_bool
    (Printf.sprintf "%.1f minor words per recv_for and send < 28" w)
    true (w < 28.0)

(* --- Sim.now --- *)

let test_now_outside_run_raises () =
  Alcotest.check_raises "outside"
    (Invalid_argument "Sim.now: no world is running on this domain") (fun () ->
      ignore (Sim.now () : int))

let test_now_in_schedule_callback () =
  let sim = Sim.create () in
  let seen = ref (-1) in
  Sim.schedule sim ~at:42 (fun () -> seen := Sim.now ());
  Sim.run sim;
  check_int "event time" 42 !seen

let test_now_restored_after_nested_run () =
  let outer = Sim.create () and inner = Sim.create () in
  let inner_seen = ref (-1) and before = ref (-1) and after = ref (-1) in
  Sim.schedule inner ~at:100 (fun () -> inner_seen := Sim.now ());
  Sim.spawn outer (fun () ->
      Sim.delay 5;
      before := Sim.now ();
      Sim.run inner;
      after := Sim.now ());
  Sim.run outer;
  check_int "inner clock" 100 !inner_seen;
  check_int "outer before" 5 !before;
  check_int "outer after" 5 !after;
  Alcotest.check_raises "none after the outer run"
    (Invalid_argument "Sim.now: no world is running on this domain") (fun () ->
      ignore (Sim.now () : int))

(* --- Sim.count: counters owned by the world --- *)

let counts_t = Alcotest.(list (pair string int))

(* Worlds run one after the other and one nested inside a process of
   another: each count lands in the world whose run is executing. *)
let test_count_per_world () =
  let a = Sim.create () and b = Sim.create () and inner = Sim.create () in
  Sim.spawn a (fun () ->
      Sim.count "x";
      Sim.delay 10;
      Sim.count "x");
  Sim.schedule b ~at:5 (fun () ->
      Sim.count "x";
      Sim.count "y");
  Sim.schedule inner ~at:3 (fun () -> Sim.count "inner");
  let c = Sim.create () in
  Sim.spawn c (fun () ->
      Sim.count "outer";
      Sim.run inner;
      Sim.count "outer");
  Sim.run a;
  Sim.run b;
  Sim.run c;
  Alcotest.check counts_t "first world" [ ("x", 2) ] (Sim.counts [ a ]);
  Alcotest.check counts_t "second world" [ ("x", 1); ("y", 1) ] (Sim.counts [ b ]);
  Alcotest.check counts_t "outer world" [ ("outer", 2) ] (Sim.counts [ c ]);
  Alcotest.check counts_t "nested world" [ ("inner", 1) ] (Sim.counts [ inner ])

let test_counts_sum_and_sort () =
  let counting names =
    let sim = Sim.create () in
    Sim.spawn sim (fun () -> List.iter Sim.count names);
    Sim.run sim;
    sim
  in
  let a = counting [ "b"; "a"; "a" ] and b = counting [ "c"; "a" ] in
  let silent = counting [] in
  Alcotest.check counts_t "summed by name, sorted"
    [ ("a", 3); ("b", 1); ("c", 1) ]
    (Sim.counts [ a; silent; b ]);
  Alcotest.check counts_t "order of the worlds does not matter"
    (Sim.counts [ a; b ]) (Sim.counts [ b; a ]);
  Alcotest.check counts_t "a world that never counted" [] (Sim.counts [ silent ]);
  Alcotest.check counts_t "no world" [] (Sim.counts [])

let test_count_outside_run_raises () =
  let no_world = Invalid_argument "Sim.count: no world is running on this domain" in
  Alcotest.check_raises "before any run" no_world (fun () -> Sim.count "x");
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.count "x");
  Sim.run sim;
  Alcotest.check_raises "after the run" no_world (fun () -> Sim.count "x");
  Alcotest.check counts_t "only the run's count" [ ("x", 1) ] (Sim.counts [ sim ])

(* --- Sim.observe: the one observer registry --- *)

(* Each observer appends its key to [log] for every world announced;
   [with_observers] removes them again whatever the test does. *)
let log_world log key = function Sim.World _ -> log := key :: !log | _ -> ()

let with_observers keys f =
  Fun.protect ~finally:(fun () -> List.iter (fun key -> Sim.unobserve ~key) keys) f

let announced_to log =
  log := [];
  ignore (Sim.create () : Sim.t);
  List.rev !log

let test_observers_in_installation_order () =
  let log = ref [] in
  with_observers [ "a"; "b"; "c" ] (fun () ->
      List.iter (fun key -> Sim.observe ~key (log_world log key)) [ "a"; "b"; "c" ];
      Alcotest.(check (list string)) "installation order" [ "a"; "b"; "c" ]
        (announced_to log))

let test_reobserved_key_runs_last () =
  let log = ref [] in
  with_observers [ "a"; "b" ] (fun () ->
      Sim.observe ~key:"a" (log_world log "a");
      Sim.observe ~key:"b" (log_world log "b");
      Sim.observe ~key:"a" (log_world log "a'");
      Alcotest.(check (list string)) "replaced, then last" [ "b"; "a'" ]
        (announced_to log))

let test_unobserve_removes_only_its_key () =
  let log = ref [] in
  with_observers [ "a"; "b" ] (fun () ->
      Sim.observe ~key:"a" (log_world log "a");
      Sim.observe ~key:"b" (log_world log "b");
      Sim.unobserve ~key:"a";
      Sim.unobserve ~key:"absent";
      Alcotest.(check (list string)) "b stays" [ "b" ] (announced_to log))

let test_observing_restores_the_key () =
  let log = ref [] in
  with_observers [ "k" ] (fun () ->
      Sim.observe ~key:"k" (log_world log "outer");
      let inside = Sim.observing ~key:"k" (log_world log "inner") (fun () -> announced_to log) in
      Alcotest.(check (list string)) "inner replaces" [ "inner" ] inside;
      Alcotest.(check (list string)) "outer back" [ "outer" ] (announced_to log);
      (match Sim.observing ~key:"k" (log_world log "raised") (fun () -> raise Exit) with
      | () -> Alcotest.fail "body raised"
      | exception Exit -> ());
      Alcotest.(check (list string)) "outer back after a raise" [ "outer" ]
        (announced_to log));
  Alcotest.(check (list string)) "nothing left" [] (announced_to log)

(* --- determinism property --- *)

let run_noise_simulation seed =
  let rng = Sl_util.Rng.create seed in
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let trace = Buffer.create 64 in
  for i = 0 to 20 do
    Sim.spawn sim (fun () ->
        Sim.delay (Sl_util.Rng.int rng 100);
        Mailbox.send mb i;
        Sim.delay (Sl_util.Rng.int rng 100);
        Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Sim.now ())))
  done;
  Sim.spawn sim (fun () ->
      for _ = 0 to 20 do
        let v = Mailbox.recv mb in
        Buffer.add_string trace (Printf.sprintf "r%d@%d;" v (Sim.now ()))
      done);
  Sim.run sim;
  Buffer.contents trace

let test_deterministic_replay () =
  Alcotest.(check string)
    "same seed, same trace"
    (run_noise_simulation 7L)
    (run_noise_simulation 7L);
  check_bool "different seed, different trace" true
    (run_noise_simulation 7L <> run_noise_simulation 8L)

let prop_pqueue_pop_sorted =
  QCheck.Test.make ~name:"pqueue pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqueue.create ~dummy:0 in
      List.iteri (fun i time -> Pqueue.push q ~time ~seq:i i) times;
      let rec drain last acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (t, _) ->
          if t < last then raise Exit;
          drain t (t :: acc)
      in
      match drain min_int [] with
      | popped -> List.length popped = List.length times
      | exception Exit -> false)

let prop_pqueue_boundary_lexicographic =
  (* Pop order must equal a lexicographic (time, seq) sort even when the
     ticks are drawn from the extremes of the representation (0, 1 and
     max_tick) and the seqs are large — the boundary cases a packed
     time/seq key would get wrong. *)
  QCheck.Test.make ~name:"pqueue lexicographic at boundary ticks" ~count:200
    QCheck.(list (pair (oneofl [ 0; 1; 2; max_int - 1; max_int ]) (int_bound 1000)))
    (fun entries ->
      let q = Pqueue.create ~dummy:(-1) in
      (* Derive a unique seq per entry so the expected order is total. *)
      let keyed =
        List.mapi (fun i (time, jitter) -> (time, (jitter lsl 20) lor i, i)) entries
      in
      List.iter (fun (time, seq, v) -> Pqueue.push q ~time ~seq v) keyed;
      let expected =
        List.sort
          (fun (t1, s1, _) (t2, s2, _) ->
            if t1 <> t2 then compare t1 t2 else compare s1 s2)
          keyed
        |> List.map (fun (_, _, v) -> v)
      in
      let popped = List.init (List.length keyed) (fun _ -> Pqueue.pop_min q) in
      popped = expected)

(* --- Wheel (timing-wheel event queue) --- *)

let wheel_span = 1 lsl 25

(* The ready chain's events, oldest first. *)
let pop_ready w =
  let rec go acc = if Wheel.ready w then go (Wheel.pop w :: acc) else List.rev acc in
  go []

(* The ready ring's events, oldest first, each with the tag it popped
   with. *)
let pop_ready_tagged w =
  let rec go acc =
    if Wheel.ready w then begin
      let x = Wheel.pop w in
      go ((x, Wheel.popped_tag w) :: acc)
    end
    else List.rev acc
  in
  go []

(* Drain a wheel (ring empty) one tick at a time: [advance], then pop
   until not ready.  Each tick comes back as (tick, its events in ring
   order). *)
let drain_ticks w =
  let rec go acc =
    let tick = Wheel.advance w ~limit:max_int in
    if tick < 0 then List.rev acc else go ((tick, pop_ready w) :: acc)
  in
  go []

(* Every tick crosses at least one structural boundary: level-0/level-1
   slot edges, a power-of-two cascade, the old 2^25 window edge into the
   far list, or max_tick.  The expected order is ascending time. *)
let test_wheel_cascade_boundaries () =
  let w = Wheel.create ~dummy:"" in
  let entries =
    [
      (31, "t31"); (32, "t32"); (33, "t33");
      (63, "t63"); (64, "t64");
      (1023, "t1023"); (1024, "t1024"); (1025, "t1025");
      (wheel_span - 1, "span-1"); (wheel_span, "span"); (wheel_span + 1, "span+1");
      (Sim.Time.max_tick, "max");
    ]
  in
  List.iter (fun (time, v) -> Wheel.push w ~time v) (List.rev entries);
  Alcotest.(check (list (pair int (list string))))
    "one tick each, ascending across slot/window boundaries"
    (List.map (fun (time, v) -> (time, [ v ])) entries)
    (drain_ticks w);
  check_bool "empty after drain" true (Wheel.is_empty w)

let test_wheel_same_tick_push_order () =
  (* Same-tick events come back in push order: pushed into one level-1
     chain, cascaded into level 0, and joined there by a push made once
     the cursor had moved up to the tick before. *)
  let w = Wheel.create ~dummy:(-1) in
  List.iter (fun v -> Wheel.push w ~time:1000 v) [ 5; 1; 4 ];
  Wheel.push w ~time:999 9;
  check_int "earlier tick first" 999 (Wheel.advance w ~limit:max_int);
  (* At the tick just reached: behind the ready chain.  At the next
     tick: behind the events cascaded there. *)
  Wheel.push w ~time:999 8;
  List.iter (fun v -> Wheel.push w ~time:1000 v) [ 0; 3; 2 ];
  Alcotest.(check (list int)) "tick 999 in push order" [ 9; 8 ] (pop_ready w);
  check_int "next tick" 1000 (Wheel.advance w ~limit:max_int);
  Alcotest.(check (list int)) "tick 1000 in push order" [ 5; 1; 4; 0; 3; 2 ] (pop_ready w);
  check_bool "empty" true (Wheel.is_empty w)

let test_wheel_far_list_jump () =
  let w = Wheel.create ~dummy:(-1) in
  (* Beyond the 2^25 window of cursor 0: all four start in the far list. *)
  Wheel.push w ~time:Sim.Time.max_tick 2;
  Wheel.push w ~time:((1 lsl 30) + 5) 0;
  Wheel.push w ~time:(1 lsl 30) 1;
  Wheel.push w ~time:((1 lsl 30) + 5) 4;
  check_int "no jump past the limit" (-1) (Wheel.advance w ~limit:((1 lsl 30) - 1));
  check_int "cursor jumps to the far minimum" (1 lsl 30) (Wheel.advance w ~limit:max_int);
  Alcotest.(check (list int)) "minimum tick" [ 1 ] (pop_ready w);
  (* A fresh push near the far-ahead cursor still beats max_tick, and a
     re-homed tick keeps its push order. *)
  Wheel.push w ~time:((1 lsl 30) + 100) 3;
  Alcotest.(check (list (pair int (list int))))
    "re-homed ticks, then max_tick"
    [ ((1 lsl 30) + 5, [ 0; 4 ]); ((1 lsl 30) + 100, [ 3 ]); (Sim.Time.max_tick, [ 2 ]) ]
    (drain_ticks w);
  check_bool "empty" true (Wheel.is_empty w);
  (* At max_tick the cursor's own tick goes to the ready chain. *)
  Wheel.push w ~time:Sim.Time.max_tick 5;
  Alcotest.(check (list int)) "push at the cursor's max_tick" [ 5 ] (pop_ready w)

let test_wheel_advance_limit () =
  (* A failed advance may move the cursor, but never past the limit: a
     push at the limit is still accepted and comes out first. *)
  let w = Wheel.create ~dummy:(-1) in
  Wheel.push w ~time:2000 0;
  check_int "one-node chain beyond the limit, its slot base within" (-1)
    (Wheel.advance w ~limit:1500);
  Wheel.push w ~time:2001 1;
  check_int "cascade stops at the limit" (-1) (Wheel.advance w ~limit:1500);
  Wheel.push w ~time:1500 2;
  check_int "one-node tick at the limit" 1500 (Wheel.advance w ~limit:1500);
  Alcotest.(check (list int)) "pushed at the limit" [ 2 ] (pop_ready w);
  Alcotest.(check (list (pair int (list int))))
    "rest" [ (2000, [ 0 ]); (2001, [ 1 ]) ] (drain_ticks w);
  (match Wheel.push w ~time:2000 9 with
   | () -> Alcotest.fail "push before the cursor accepted"
   | exception Invalid_argument _ -> ());
  check_bool "empty" true (Wheel.is_empty w)

(* A popped payload is collectable once its caller drops it, while the
   wheel lives on, whichever way it reached the ready chain: pushed for
   the cursor's tick, or chained for a later tick and moved there by
   [advance] (a cascade, then a splice).  Popping a node re-seeds its
   payload slot. *)
let test_wheel_pop_releases_payload () =
  let w = Wheel.create ~dummy:(ref (-1)) in
  let n = 32 in
  let weak = Weak.create (2 * n) in
  let push i time =
    let payload = ref i in
    Weak.set weak i (Some payload);
    Wheel.push w ~time payload
  in
  for i = 0 to n - 1 do
    push i 0
  done;
  for i = n to (2 * n) - 1 do
    push i 40
  done;
  let pop_all () =
    while Wheel.ready w do
      ignore (Sys.opaque_identity (Wheel.pop w))
    done
  in
  pop_all ();
  check_int "the later tick" 40 (Wheel.advance w ~limit:max_int);
  for _ = 1 to n / 2 do
    ignore (Sys.opaque_identity (Wheel.pop w))
  done;
  Gc.full_major ();
  Gc.full_major ();
  let alive i = Weak.check weak i in
  for i = 0 to n + (n / 2) - 1 do
    check_bool (Printf.sprintf "popped payload %d collected" i) false (alive i)
  done;
  for i = n + (n / 2) to (2 * n) - 1 do
    check_bool (Printf.sprintf "pending payload %d alive" i) true (alive i)
  done;
  pop_all ();
  check_bool "empty" true (Wheel.is_empty w)

(* [a + b] for [b >= 0], saturating at max_tick instead of wrapping. *)
let sat_add a b = if a > Sim.Time.max_tick - b then Sim.Time.max_tick else a + b

(* Random push/advance interleavings checked tick by tick against the
   binary heap as the reference model: each tick the wheel hands over
   must be the heap's minimum time, with exactly the heap's events at
   that time in (time, seq) order — push order.  Pushes are at or after
   the tick last reached, like the run loop's, and cover every
   placement: the tick just reached (the ready chain), each wheel
   level, the old 2^25 window edge, far-list jumps, and max_tick;
   offsets saturate at max_tick.  A bounded advance that finds nothing parks [now] at its
   limit, as {!Sim.run} parks the clock.  A peek ([Wheel.quiet_until])
   stops short of the earliest pending tick, and reads [max_int] on an
   empty wheel.  Every push carries a random tag, and every pop's tag
   must be its heap entry's: tags ride along through every move. *)
let prop_wheel_matches_heap =
  let open QCheck in
  let op =
    Gen.oneof
      [
        Gen.map3
          (fun cls jitter tag -> `Push (cls, jitter, tag))
          (Gen.int_bound 7) (Gen.int_bound 1023) Gen.int;
        Gen.return `Tick;
        Gen.map (fun d -> `Tick_until d) (Gen.int_bound 2048);
        Gen.return `Peek;
      ]
  in
  let print = function
    | `Push (cls, jitter, tag) -> Printf.sprintf "push %d/%d#%d" cls jitter tag
    | `Tick -> "tick"
    | `Tick_until d -> Printf.sprintf "tick+%d" d
    | `Peek -> "peek"
  in
  Test.make ~name:"wheel matches heap on random interleavings" ~count:300
    (make ~print:(Print.list print) (Gen.list op)) (fun ops ->
      let wheel = Wheel.create ~dummy:(-1) in
      let heap = Pqueue.create ~dummy:(-1, 0) in
      let seq = ref 0 in
      let now = ref 0 in
      let ok = ref true in
      let heap_tick () =
        let time = Pqueue.min_time heap in
        let rec take acc =
          if (not (Pqueue.is_empty heap)) && Pqueue.min_time heap = time then
            take (Pqueue.pop_min heap :: acc)
          else List.rev acc
        in
        (time, take [])
      in
      let tick limit =
        let expect =
          if Pqueue.is_empty heap || Pqueue.min_time heap > limit then None
          else Some (heap_tick ())
        in
        let got =
          if Wheel.ready wheel then Some (!now, pop_ready_tagged wheel)
          else
            let t = Wheel.advance wheel ~limit in
            if t < 0 then None else Some (t, pop_ready_tagged wheel)
        in
        if got <> expect then ok := false;
        match got with Some (t, _) -> now := t | None -> now := max !now limit
      in
      List.iter
        (function
          | `Push (cls, jitter, tag) ->
            let edge = sat_add (!now lor (wheel_span - 1)) 1 in
            let time =
              match cls with
              | 0 -> sat_add !now (jitter land 3)  (* the tick just reached *)
              | 1 -> sat_add !now jitter  (* levels 0-1 *)
              | 2 -> sat_add !now (1024 + (jitter lsl 5))  (* mid levels *)
              | 3 -> sat_add !now ((1 lsl 20) + (jitter lsl 10))  (* top level *)
              | 4 -> max !now (sat_add (edge - 512) jitter)  (* across the 2^25 edge *)
              | 5 -> sat_add !now ((1 lsl 25) + (jitter lsl 15))  (* far list *)
              | 6 -> sat_add !now ((1 lsl 40) + jitter)  (* far jump *)
              | _ -> Sim.Time.max_tick
            in
            incr seq;
            Wheel.push_tagged wheel ~time ~tag !seq;
            Pqueue.push heap ~time ~seq:!seq (!seq, tag)
          | `Tick -> tick max_int
          | `Tick_until d -> tick (sat_add !now d)
          | `Peek ->
            let quiet = Wheel.quiet_until wheel in
            if Pqueue.is_empty heap then (if quiet <> max_int then ok := false)
            else if quiet >= Pqueue.min_time heap then ok := false)
        ops;
      while !ok && not (Pqueue.is_empty heap) do
        tick max_int
      done;
      !ok && Wheel.is_empty wheel)

(* --- Sim run loop (wheel + same-tick ready chain) --- *)

(* A random program: each node fires as a callback, logs itself and
   schedules its children at the listed offsets.  A node with [awaits]
   also spawns a process that schedules its own resumer callback that
   many cycles on, [Sim.await]s it, and schedules the node's children
   only once resumed — so resume hops land on the ready chain at the
   resumer's tick, behind whatever the wheel already holds for that
   tick. *)
type prog = { id : int; awaits : int option; kids : (int * prog) list }

(* A script interleaves root injections (at the current clock plus an
   offset, from outside any run) with bounded runs, whose horizon is the
   current clock plus a delta; negative deltas put the horizon behind
   the clock.  A final unbounded run drains whatever is left. *)
type step = Add of int * prog | Run_until of int

type log_entry = Fired of int | Started of int | Resumer of int | Resumed of int

(* The engine contract, written directly on one Pqueue: every push takes
   the next seq, and events pop in (time, seq) order. *)
module Ref_sim = struct
  type t = { mutable now : int; mutable seq : int; q : (unit -> unit) Pqueue.t }

  let create () = { now = 0; seq = 0; q = Pqueue.create ~dummy:(fun () -> ()) }

  let push r ~at f =
    r.seq <- r.seq + 1;
    Pqueue.push r.q ~time:at ~seq:r.seq f

  let run ?until r =
    let horizon = match until with None -> max_int | Some h -> h in
    let rec loop () =
      if (not (Pqueue.is_empty r.q)) && Pqueue.min_time r.q <= horizon then begin
        r.now <- Pqueue.min_time r.q;
        Pqueue.pop_min r.q ();
        loop ()
      end
      else match until with Some h when h > r.now -> r.now <- h | _ -> ()
    in
    loop ()
end

(* Interpret a script against either engine.  [push] schedules a thunk,
   [spawn_await d k] runs a process that schedules a resumer [d] cycles
   on, awaits it, and then calls [k]. *)
let interpret ~now ~push ~spawn_await ~run steps =
  let log = ref [] in
  let note e = log := (e, now ()) :: !log in
  let rec fire p () =
    note (Fired p.id);
    match p.awaits with
    | None -> schedule_kids p
    | Some d ->
      spawn_await ~note p.id d (fun () ->
          note (Resumed p.id);
          schedule_kids p)
  and schedule_kids p =
    List.iter (fun (off, k) -> push ~at:(now () + off) (fire k)) p.kids
  in
  let clocks =
    List.map
      (function
        | Add (off, p) ->
          push ~at:(now () + off) (fire p);
          now ()
        | Run_until delta ->
          run (Some (now () + delta));
          now ())
      steps
  in
  run None;
  (List.rev !log, clocks @ [ now () ])

let run_on_sim steps =
  let sim = Sim.create () in
  let now () = Sim.time sim in
  let push ~at f = Sim.schedule sim ~at f in
  let spawn_await ~note id d k =
    Sim.spawn sim (fun () ->
        note (Started id);
        let resume = ref (fun () -> ()) in
        Sim.schedule sim ~at:(Sim.now () + d) (fun () ->
            note (Resumer id);
            !resume ());
        Sim.await (fun r -> resume := r);
        k ())
  in
  interpret ~now ~push ~spawn_await ~run:(fun until -> Sim.run ?until sim) steps

let run_on_reference steps =
  let r = Ref_sim.create () in
  let now () = r.Ref_sim.now in
  let push ~at f = Ref_sim.push r ~at f in
  (* A process start, its resumer and its resume hop are one push each,
     in the order Sim makes them: spawn, resumer, then resume at the
     resumer's tick. *)
  let spawn_await ~note id d k =
    push ~at:(now ()) (fun () ->
        note (Started id);
        push ~at:(now () + d) (fun () ->
            note (Resumer id);
            push ~at:(now ()) k))
  in
  interpret ~now ~push ~spawn_await ~run:(fun until -> Ref_sim.run ?until r) steps

let gen_script =
  let open QCheck.Gen in
  let offsets = [| 0; 0; 1; 31; 32; 1024; 1 lsl 20; (1 lsl 25) + 7 |] in
  let offset = frequency [ (2, return 0); (3, oneofa offsets) ] in
  let next_id = ref 0 in
  let prog =
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           let kids =
             if n <= 0 then return []
             else list_size (int_bound 3) (pair offset (self (n / 3)))
           in
           map2
             (fun awaits kids ->
               incr next_id;
               { id = !next_id; awaits; kids })
             (opt offset) kids)
  in
  let delta = oneofl [ -1000; -1; 0; 1; 31; 1024; 1 lsl 20; 1 lsl 26 ] in
  list_size (int_range 1 8)
    (frequency [ (3, map2 (fun o p -> Add (o, p)) offset prog); (2, map (fun d -> Run_until d) delta) ])

(* The run loop against the one-heap reference: the same fired
   (event, time) sequence, and the same clock after every step.  Covers
   same-tick callback chains, await/resume hops at the resumer's tick,
   wheel events due at a tick the ready chain is also serving,
   injections at a parked clock, back-to-back bounded runs, and a
   horizon behind the clock (which fires nothing, not even the current
   tick's ready chain). *)
let prop_run_loop_matches_reference =
  QCheck.Test.make ~name:"sim run loop matches one-heap (time, seq) reference" ~count:300
    (QCheck.make gen_script) (fun steps -> run_on_sim steps = run_on_reference steps)

(* --- Mailbox against a FIFO model --- *)

(* A process's steps on one shared mailbox.  A [Send] at step [i] of
   process [p] sends [p * 1000 + i], so every item is distinct. *)
type mb_op = Send | Recv | Recv_for of int | Try_recv | Pause of int

let print_mb_op = function
  | Send -> "send"
  | Recv -> "recv"
  | Recv_for w -> Printf.sprintf "recv_for %d" w
  | Try_recv -> "try_recv"
  | Pause d -> Printf.sprintf "pause %d" d

let gen_mb_procs =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, return Send);
        (2, return Recv);
        (2, map (fun w -> Recv_for w) (int_range (-1) 12));
        (1, return Try_recv);
        (3, map (fun d -> Pause d) (int_bound 8));
      ]
  in
  list_size (int_range 1 5) (list_size (int_bound 8) op)

let print_mb_procs procs =
  String.concat " | " (List.map (fun ops -> String.concat "; " (List.map print_mb_op ops)) procs)

let item p i = (p * 1000) + i

(* Every receive's (process, step, result, tick) and the items left in
   the mailbox once the run has drained; then the items sent (a step
   after a receive that never returns does not run). *)
let mailbox_on_sim procs =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got = ref [] and sent = ref [] in
  List.iteri
    (fun p ops ->
      Sim.spawn sim (fun () ->
          List.iteri
            (fun i op ->
              let note v = got := (p, i, v, Sim.now ()) :: !got in
              match op with
              | Send ->
                sent := item p i :: !sent;
                Mailbox.send mb (item p i)
              | Recv -> note (Some (Mailbox.recv mb))
              | Recv_for within -> note (Mailbox.recv_for mb ~within)
              | Try_recv -> note (Mailbox.try_recv mb)
              | Pause d -> Sim.delay d)
            ops))
    procs;
  Sim.run sim;
  let rec drain acc = match Mailbox.try_recv mb with Some v -> drain (v :: acc) | None -> List.rev acc in
  ((List.rev !got, drain []), !sent)

(* The same processes over a pure FIFO model on the one-heap reference
   engine.  A blocked receiver waits in a list; a send hands its item to
   the oldest waiter, and a timeout takes its own waiter out of the
   list.  Every resume is a push at the current tick, a process's start
   too; a [recv_for]'s timeout is a child started at the current tick
   that waits [within] more. *)
let mailbox_on_reference procs =
  let r = Ref_sim.create () in
  let now () = r.Ref_sim.now in
  let hop f = Ref_sim.push r ~at:(now ()) f in
  let items = ref [] and waiting = ref [] and got = ref [] and waiters = ref 0 in
  let gives_up = function Try_recv -> true | Recv_for within -> within <= 0 | _ -> false in
  let rec go p i = function
    | [] -> ()
    | op :: rest -> (
      let note v = got := (p, i, v, now ()) :: !got in
      let next () = go p (i + 1) rest in
      match (op, !items) with
      | Send, _ ->
        (match !waiting with
        | (_, resume) :: ws ->
          waiting := ws;
          hop (fun () -> resume (Some (item p i)))
        | [] -> items := !items @ [ item p i ]);
        next ()
      | Pause d, _ -> Ref_sim.push r ~at:(now () + d) next
      | _, v :: vs ->
        items := vs;
        note (Some v);
        next ()
      | _, [] when gives_up op ->
        note None;
        next ()
      | _, [] -> (
        incr waiters;
        let id = !waiters in
        let resume v =
          note v;
          next ()
        in
        waiting := !waiting @ [ (id, resume) ];
        match op with
        | Recv_for within ->
          hop (fun () ->
              Ref_sim.push r ~at:(now () + within) (fun () ->
                  if List.mem_assoc id !waiting then begin
                    waiting := List.remove_assoc id !waiting;
                    hop (fun () -> resume None)
                  end))
        | _ -> ()))
  in
  List.iteri (fun p ops -> hop (fun () -> go p 0 ops)) procs;
  Ref_sim.run r;
  (List.rev !got, !items)

(* Each receive returns the model's value at the model's tick, and the
   same items are left over.  On its own, too: every sent item is
   received once or left over, never lost and never delivered twice. *)
let prop_mailbox_matches_fifo_model =
  QCheck.Test.make ~name:"mailbox matches a FIFO model" ~count:500
    (QCheck.make ~print:print_mb_procs ~shrink:QCheck.Shrink.(list ~shrink:list) gen_mb_procs)
    (fun procs ->
      let ((got, left) as sim), sent = mailbox_on_sim procs in
      let delivered = List.filter_map (fun (_, _, v, _) -> v) got in
      List.sort compare (delivered @ left) = List.sort compare sent
      && sim = mailbox_on_reference procs)

(* --- Continuing inline changes nothing observable --- *)

module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

(* A process's steps.  [Exec] runs on core [c mod cores] at the given
   weight; [Read] blocks until some [Fill] (or the world's late fill)
   fills the ivar.  [Spin] polls on a core like [Exec], one gap per
   check, until the ivar is filled, at [Useful] (so its gaps add to the
   sums that shared executes built) or [Poll]. *)
type op =
  | Wait of int
  | Exec of int * float * int
  | Spin of int * float * int * int * Smt_core.kind
  | Fork of op list
  | Fill of int
  | Read of int

type world = { width : int; ncores : int; fill_at : int; horizon : int; procs : op list list }

let ivar_count = 3

let rec print_op = function
  | Wait d -> Printf.sprintf "wait %d" d
  | Exec (c, w, n) -> Printf.sprintf "exec %d/%g/%d" c w n
  | Spin (c, w, gap, i, kind) ->
    Printf.sprintf "spin %d/%g/%d%s until %d" c w gap
      (if kind = Smt_core.Poll then "/poll" else "") i
  | Fork ops -> Printf.sprintf "fork [%s]" (String.concat "; " (List.map print_op ops))
  | Fill i -> Printf.sprintf "fill %d" i
  | Read i -> Printf.sprintf "read %d" i

let print_world w =
  Printf.sprintf "width %d, %d cores, fill at %d, first run until %d:\n%s" w.width w.ncores
    w.fill_at w.horizon
    (String.concat "\n"
       (List.map (fun ops -> "  " ^ String.concat "; " (List.map print_op ops)) w.procs))

let gen_world =
  let open QCheck.Gen in
  let rec ops depth = list_size (int_range 1 6) (op depth)
  and op depth =
    frequency
      ([
         (3, map (fun d -> Wait d) (oneof [ int_bound 2; int_bound 60 ]));
         ( 4,
           map3
             (fun c w n -> Exec (c, w, n))
             (int_bound 2) (oneofl [ 1.0; 1.0; 2.0 ]) (int_range 1 120) );
         ( 2,
           map3
             (fun (c, w) (gap, i) kind -> Spin (c, w, gap, i, kind))
             (pair (int_bound 2) (oneofl [ 1.0; 1.0; 2.0 ]))
             (pair (int_range 1 40) (int_bound (ivar_count - 1)))
             (oneofl [ Smt_core.Useful; Smt_core.Useful; Smt_core.Poll ]) );
         (1, map (fun i -> Fill i) (int_bound (ivar_count - 1)));
         (1, map (fun i -> Read i) (int_bound (ivar_count - 1)));
       ]
      @ if depth > 0 then [ (1, map (fun o -> Fork o) (ops (depth - 1))) ] else [])
  in
  map3
    (fun (width, ncores) (fill_at, horizon) procs -> { width; ncores; fill_at; horizon; procs })
    (pair (int_range 1 2) (int_range 1 3))
    (pair (int_bound 3000) (int_bound 2000))
    (list_size (int_range 1 5) (ops 2))

(* Run a world: a bounded run, then one to the end.  Every process logs
   (process, step, time) after each step; the result also holds the
   clock after the bounded run and each core's sums, as float bits: its
   busy capacity, each kind's work and each process's cycles.  With
   [beat], a heartbeat keeps an event due at every tick while a process
   lives, so no positive wait continues inline.  With [spin], a [Spin]
   serves its lone gaps in one call ([Smt_core.serve_lone_gaps], as
   [Chip.spin] does) before each ordinary gap; without it, it is the
   plain loop of executes.  The events popped come back beside. *)
let run_world ~beat ~spin w =
  let sim = Sim.create () in
  let params = { Params.default with Params.smt_width = w.width } in
  let cores = Array.init w.ncores (fun core_id -> Smt_core.create sim params ~core_id) in
  let ivars = Array.init ivar_count (fun _ -> Ivar.create ()) in
  let log = ref [] and live = ref 0 and next_ptid = ref 0 in
  (* Every process takes a slot on every core, in ptid order, so its
     slot on each core is its ptid. *)
  let rec start ops =
    let ptid = !next_ptid in
    incr next_ptid;
    incr live;
    Array.iter (fun core -> ignore (Smt_core.add_slot core ~ptid : int)) cores;
    let slot = ptid in
    fun () ->
      List.iteri
        (fun step op ->
          (match op with
           | Wait d -> Sim.delay d
           | Exec (c, weight, n) ->
             let core = cores.(c mod w.ncores) in
             Smt_core.set_runnable core ~slot ~weight true;
             Smt_core.execute core ~slot ~kind:Smt_core.Useful n;
             Smt_core.set_runnable core ~slot ~weight false
           | Spin (c, weight, gap, i, kind) ->
             let core = cores.(c mod w.ncores) in
             Smt_core.set_runnable core ~slot ~weight true;
             while Option.is_none (Ivar.peek ivars.(i)) do
               if spin then Smt_core.serve_lone_gaps core ~slot ~kind gap;
               Smt_core.execute core ~slot ~kind gap
             done;
             Smt_core.set_runnable core ~slot ~weight false
           | Fork child -> Sim.fork (start child)
           | Fill i -> ignore (Ivar.try_fill ivars.(i) () : bool)
           | Read i -> Ivar.read ivars.(i));
          log := (ptid, step, Sim.now ()) :: !log)
        ops;
      decr live
  in
  List.iter (fun ops -> Sim.spawn sim (start ops)) w.procs;
  Sim.schedule sim ~at:w.fill_at (fun () ->
      Array.iter (fun iv -> ignore (Ivar.try_fill iv () : bool)) ivars);
  if beat then begin
    let rec tick () = if !live > 0 then Sim.schedule sim ~at:(Sim.time sim + 1) tick in
    Sim.schedule sim ~at:0 tick
  end;
  Sim.run ~until:w.horizon sim;
  let parked = Sim.time sim in
  Sim.run sim;
  let bits = Int64.bits_of_float in
  let sums core =
    ( bits (Smt_core.busy_capacity_cycles core),
      List.map
        (fun kind -> bits (Smt_core.work_done core kind))
        Smt_core.[ Useful; Poll; Overhead ],
      List.init !next_ptid (fun slot -> bits (Smt_core.thread_cycles core ~slot)) )
  in
  ((List.rev !log, parked, Array.map sums cores, !live), Sim.events_processed sim)

(* The spin world against the plain loop of executes (events included:
   the lone gaps it serves at once would each have continued inline),
   and against the heartbeat world, where nothing continues inline. *)
let prop_inline_waits_unobservable =
  QCheck.Test.make ~name:"continuing inline matches a world that never can" ~count:200
    (QCheck.make ~print:print_world gen_world) (fun w ->
      let spun, spun_events = run_world ~beat:false ~spin:true w in
      let looped, looped_events = run_world ~beat:false ~spin:false w in
      let beaten, _ = run_world ~beat:true ~spin:true w in
      spun = looped && spun_events = looped_events && spun = beaten)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_pqueue_pop_sorted;
        prop_pqueue_boundary_lexicographic;
        prop_wheel_matches_heap;
        prop_run_loop_matches_reference;
        prop_mailbox_matches_fifo_model;
        prop_inline_waits_unobservable;
      ]
  in
  Alcotest.run "engine"
    [
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "seq tiebreak" `Quick test_pqueue_seq_tiebreak;
          Alcotest.test_case "random sorted" `Quick test_pqueue_random_sorted;
          Alcotest.test_case "model interleaved" `Quick test_pqueue_model_interleaved;
          Alcotest.test_case "pop releases payload" `Quick test_pqueue_pop_releases_payload;
          Alcotest.test_case "order at tick boundaries" `Quick
            test_pqueue_order_at_tick_boundaries;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "cascade boundaries" `Quick test_wheel_cascade_boundaries;
          Alcotest.test_case "same-tick push order" `Quick test_wheel_same_tick_push_order;
          Alcotest.test_case "far list jump" `Quick test_wheel_far_list_jump;
          Alcotest.test_case "advance limit" `Quick test_wheel_advance_limit;
          Alcotest.test_case "pop releases payload" `Quick test_wheel_pop_releases_payload;
        ] );
      ( "sim",
        [
          Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
          Alcotest.test_case "fork order" `Quick test_fork_runs_after_parent_blocks;
          Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "until parks after drain" `Quick
            test_run_until_parks_after_drain;
          Alcotest.test_case "schedule callback" `Quick test_schedule_callback;
          Alcotest.test_case "schedule past rejected" `Quick test_schedule_past_rejected;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "event_tag reads its own tag" `Quick test_event_tag_own_tag;
          Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
          Alcotest.test_case "delay past max_tick rejected" `Quick
            test_delay_past_max_tick_rejected;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "fork and set_daemon outside a process" `Quick
            test_process_calls_outside_a_process_raise;
        ] );
      ( "inline",
        [
          Alcotest.test_case "lone delay adds no event" `Quick test_lone_delay_inline;
          Alcotest.test_case "due event runs before the delay returns" `Quick
            test_due_event_runs_before_delay_returns;
          Alcotest.test_case "delay past the horizon waits" `Quick
            test_delay_past_horizon_waits;
          Alcotest.test_case "delay outside a process raises" `Quick
            test_delay_outside_process_raises;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill wakes readers" `Quick test_ivar_fill_wakes_readers;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill_immediate;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "readers wake in registration order" `Quick
            test_ivar_readers_wake_in_registration_order;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "one-token mutual exclusion" `Quick
            test_mailbox_one_token_mutual_exclusion;
          Alcotest.test_case "fifo wakeup" `Quick test_mailbox_fifo_wakeup;
          Alcotest.test_case "recv_for timeout" `Quick
            test_mailbox_recv_for_timeout;
          Alcotest.test_case "keeps nothing taken" `Quick test_mailbox_keeps_nothing_taken;
          Alcotest.test_case "give-up leaves the queue in order" `Quick
            test_mailbox_recv_for_leaves_in_order;
        ] );
      ( "trace",
        [
          Alcotest.test_case "timestamps" `Quick test_trace_records_with_timestamps;
          Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrites_oldest;
          Alcotest.test_case "wraparound boundary" `Quick test_trace_wraparound_boundary;
          Alcotest.test_case "wraparound many laps" `Quick test_trace_wraparound_many_laps;
          Alcotest.test_case "clear resets" `Quick test_trace_clear_resets_wraparound;
        ] );
      ( "stuck",
        [
          Alcotest.test_case "reports abandoned" `Quick test_stuck_reports_abandoned_process;
          Alcotest.test_case "empty when resumed" `Quick test_stuck_empty_when_all_resume;
          Alcotest.test_case "ignores horizon" `Quick test_stuck_ignores_horizon_parked;
        ] );
      ( "await",
        [
          Alcotest.test_case "resume called twice" `Quick test_await_resume_twice;
          Alcotest.test_case "stale resume from an earlier await" `Quick
            test_await_stale_resume;
        ] );
      ( "suspend",
        [
          Alcotest.test_case "second wake raises" `Quick test_wake_twice_rejected;
          Alcotest.test_case "wake is a same-tick hop" `Quick test_wake_is_a_same_tick_hop;
          Alcotest.test_case "calls from another world raise" `Quick
            test_calls_from_another_world_raise;
          Alcotest.test_case "stuck lists a suspended process" `Quick
            test_stuck_lists_suspended;
          Alcotest.test_case "suspects skip a suspended daemon" `Quick
            test_suspects_skip_suspended_daemon;
          Alcotest.test_case "parked stack not retained" `Quick
            test_parked_stack_not_retained;
          Alcotest.test_case "stuck in pid order after exits" `Quick
            test_stuck_in_pid_order_after_exits;
          Alcotest.test_case "escaped exception retires the process" `Quick
            test_escaped_exception_retires_process;
          Alcotest.test_case "set_daemon marks the resumed process" `Quick
            test_set_daemon_marks_the_resumed_process;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "await round trip" `Quick test_await_allocation;
          Alcotest.test_case "fork with its child" `Quick test_fork_allocation;
          Alcotest.test_case "set_daemon allocates nothing" `Quick
            test_set_daemon_allocation;
          Alcotest.test_case "ivar round trip" `Quick test_ivar_round_trip_allocation;
          Alcotest.test_case "blocked mailbox round trip" `Quick
            test_mailbox_round_trip_allocation;
          Alcotest.test_case "recv_for round trip" `Quick
            test_recv_for_round_trip_allocation;
        ] );
      ( "observe",
        [
          Alcotest.test_case "installation order" `Quick
            test_observers_in_installation_order;
          Alcotest.test_case "re-observed key runs last" `Quick
            test_reobserved_key_runs_last;
          Alcotest.test_case "unobserve removes only its key" `Quick
            test_unobserve_removes_only_its_key;
          Alcotest.test_case "observing restores the key" `Quick
            test_observing_restores_the_key;
        ] );
      ( "now",
        [
          Alcotest.test_case "raises outside any run" `Quick test_now_outside_run_raises;
          Alcotest.test_case "inside a schedule callback" `Quick
            test_now_in_schedule_callback;
          Alcotest.test_case "nested run restores the outer clock" `Quick
            test_now_restored_after_nested_run;
        ] );
      ( "count",
        [
          Alcotest.test_case "each world keeps its own counts" `Quick test_count_per_world;
          Alcotest.test_case "counts sum across worlds, sorted by name" `Quick
            test_counts_sum_and_sort;
          Alcotest.test_case "raises outside any run" `Quick test_count_outside_run_raises;
        ] );
      ("properties", qsuite);
    ]
