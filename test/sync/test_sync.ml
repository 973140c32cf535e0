(* Lockstep property tests for lib/sync: every lock algorithm against a
   reference model, driven by the [Lock.on_event] instrumentation stream
   over randomized interleavings (random thread counts, core placement
   and execution jitter vary the schedule; the simulator then replays
   each interleaving deterministically, so failures shrink). *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Rng = Sl_util.Rng
module Lock = Sl_sync.Lock
module Bqueue = Sl_sync.Bqueue
module Atomics = Sl_sync.Atomics
module Analysis = Sl_analysis.Analysis

let params =
  { Params.default with Params.monitor_capacity_per_core = 1_000_000 }

(* One randomized contention run: [n] threads split over two cores, each
   looping [rounds] critical sections with seed-derived execution jitter
   inside and outside the lock.  Returns when every thread has finished;
   [check] observes the event stream, [body] the critical section. *)
let run_contention ?on_event ~kind ~seed ~n ~rounds ~body () =
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:2 in
  let lock = Lock.create ?on_event chip kind in
  let rng = Rng.create (Int64.of_int seed) in
  for i = 0 to n - 1 do
    let jitter = Rng.copy rng in
    ignore (Rng.next_int64 rng : int64);
    let th =
      Chip.add_thread chip ~core:(i mod 2) ~ptid:(i + 1) ~mode:Ptid.User ()
    in
    Chip.attach th (fun t ->
        Isa.exec t (1 + Rng.int jitter 200);
        for r = 1 to rounds do
          Lock.acquire lock t;
          body ~th:t ~ptid:(i + 1) ~round:r ~jitter;
          Lock.release lock t;
          Isa.exec t (1 + Rng.int jitter 120)
        done);
    Chip.boot th
  done;
  Sim.run sim;
  (chip, lock)

(* --- property 1: mutual exclusion, sanitizer-armed ----------------------- *)

(* Two independent detectors: an OCaml-level occupancy counter that must
   read 1 across every suspension point inside the critical section, and
   a tracked read-modify-write counter in simulated memory whose final
   value catches lost updates.  The whole run executes under the race
   detector and sanitizer ([Analysis.with_all]); any finding fails. *)
let prop_mutual_exclusion =
  QCheck.Test.make ~count:40 ~name:"mutual exclusion holds for every lock kind"
    QCheck.(pair (int_bound 10_000) (int_range 2 5))
    (fun (seed, n) ->
      List.for_all
        (fun kind ->
          let rounds = 4 in
          (* A fixed low address: [Memory] auto-grows on first store, so
             the protected counter needs no allocation ceremony. *)
          let counter = 16 in
          let violations = ref 0 in
          let in_cs = ref 0 in
          let (chip, lock), findings =
            Analysis.with_all (fun () ->
                run_contention ~kind ~seed ~n ~rounds
                  ~body:(fun ~th ~ptid:_ ~round:_ ~jitter ->
                    incr in_cs;
                    if !in_cs <> 1 then incr violations;
                    let v = Isa.load th counter in
                    Isa.exec th (1 + Rng.int jitter 60);
                    if !in_cs <> 1 then incr violations;
                    Isa.store th counter (Int64.add v 1L);
                    decr in_cs)
                  ())
          in
          let final = Memory.read (Chip.memory chip) counter in
          let st = Lock.stats lock in
          !violations = 0 && findings = []
          && Int64.equal final (Int64.of_int (n * rounds))
          && st.Lock.acquires = n * rounds)
        Lock.all_kinds)

(* --- property 2/3: FIFO lockstep for ticket and MCS ---------------------- *)

(* Reference model: a queue of ptids.  [Join] (the commit instant of the
   acquire's first atomic — ticket draw or tail swap) enqueues; every
   [Grant] must go to the head.  Any barging or reordering shows up as a
   head mismatch. *)
let fifo_lockstep ~kind (seed, n) =
  let q = Queue.create () in
  let mismatches = ref 0 in
  let on_event = function
    | Lock.Join p -> Queue.add p q
    | Lock.Grant p ->
        let expect = try Queue.pop q with Queue.Empty -> -1 in
        if expect <> p then incr mismatches
    | Lock.Release _ | Lock.Park _ | Lock.Wake _ -> ()
  in
  let _, lock =
    run_contention ~on_event ~kind ~seed ~n ~rounds:5
      ~body:(fun ~th ~ptid:_ ~round:_ ~jitter ->
        Isa.exec th (1 + Rng.int jitter 150))
      ()
  in
  let st = Lock.stats lock in
  !mismatches = 0 && Queue.is_empty q
  && st.Lock.max_count - st.Lock.min_count = 0
  && st.Lock.fifo_distance_mean = 0.0

let prop_ticket_fifo =
  QCheck.Test.make ~count:200 ~name:"ticket lock grants in ticket-draw order"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fifo_lockstep ~kind:Lock.Ticket)

let prop_mcs_fifo =
  QCheck.Test.make ~count:100 ~name:"mcs locks grant in tail-swap order"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun inst ->
      fifo_lockstep ~kind:Lock.Mcs_spin inst
      && fifo_lockstep ~kind:Lock.Mcs_mwait inst)

(* --- property 4: parking-lock wake epochs vs waiter-set model ------------ *)

(* Reference model for the parking designs: per-ptid joined/parked flags
   plus the owner.  A thread may only park between its join and its
   grant, never twice without an intervening wake; every wake hits a
   parked thread; grants go to joined, awake threads while the lock is
   free; releases come from the owner.  At quiescence nobody is parked
   and every join was granted. *)
let waiter_set_lockstep ~kind (seed, n) =
  let joined = Hashtbl.create 8 in
  let parked = Hashtbl.create 8 in
  let owner = ref (-1) in
  let bad = ref 0 in
  let check c = if not c then incr bad in
  let on_event = function
    | Lock.Join p ->
        check (not (Hashtbl.mem joined p));
        Hashtbl.replace joined p ()
    | Lock.Park p ->
        check (Hashtbl.mem joined p);
        check (not (Hashtbl.mem parked p));
        check (!owner <> p);
        Hashtbl.replace parked p ()
    | Lock.Wake p ->
        check (Hashtbl.mem parked p);
        Hashtbl.remove parked p
    | Lock.Grant p ->
        check (Hashtbl.mem joined p);
        check (not (Hashtbl.mem parked p));
        check (!owner = -1);
        Hashtbl.remove joined p;
        owner := p
    | Lock.Release p ->
        check (!owner = p);
        owner := -1
  in
  let _, lock =
    run_contention ~on_event ~kind ~seed ~n ~rounds:5
      ~body:(fun ~th ~ptid:_ ~round:_ ~jitter ->
        Isa.exec th (1 + Rng.int jitter 150))
      ()
  in
  let st = Lock.stats lock in
  !bad = 0 && Hashtbl.length parked = 0 && Hashtbl.length joined = 0
  && !owner = -1
  && st.Lock.wakes >= st.Lock.parks

let prop_parking_waiter_set =
  QCheck.Test.make ~count:100
    ~name:"parking locks respect the waiter-set model"
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun inst ->
      waiter_set_lockstep ~kind:Lock.Park_mwait inst
      && waiter_set_lockstep ~kind:Lock.Park_sw inst)

(* --- property 5: producer-consumer conservation -------------------------- *)

(* Random producer/consumer mixes over a small ring: every produced item
   is consumed exactly once (payload sum matches), the queue quiesces
   empty, and [produced = consumed + length] as the interface promises. *)
let prop_bqueue_conservation =
  QCheck.Test.make ~count:200 ~name:"bounded queue conserves items"
    QCheck.(
      quad (int_bound 10_000) (int_range 1 3) (int_range 1 3) (int_range 1 6))
    (fun (seed, producers, consumers, capacity) ->
      let per_producer = 12 in
      let total = producers * per_producer in
      let sim = Sim.create () in
      let chip = Chip.create sim params ~cores:2 in
      let q = Bqueue.create chip ~capacity in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let consumed_sum = ref 0L in
      let consumed_n = ref 0 in
      for i = 0 to producers - 1 do
        let jitter = Rng.copy rng in
        ignore (Rng.next_int64 rng : int64);
        let th =
          Chip.add_thread chip ~core:(i mod 2) ~ptid:(100 + i)
            ~mode:Ptid.User ()
        in
        Chip.attach th (fun t ->
            for r = 1 to per_producer do
              Isa.exec t (1 + Rng.int jitter 90);
              Bqueue.put q t (Int64.of_int ((i * per_producer) + r))
            done);
        Chip.boot th
      done;
      (* Consumers split the total; the last one takes the remainder. *)
      let share = total / consumers in
      for i = 0 to consumers - 1 do
        let jitter = Rng.copy rng in
        ignore (Rng.next_int64 rng : int64);
        let quota =
          if i = consumers - 1 then total - (share * (consumers - 1))
          else share
        in
        let th =
          Chip.add_thread chip ~core:(i mod 2) ~ptid:(200 + i)
            ~mode:Ptid.User ()
        in
        Chip.attach th (fun t ->
            for _ = 1 to quota do
              let v = Bqueue.get q t in
              consumed_sum := Int64.add !consumed_sum v;
              incr consumed_n;
              Isa.exec t (1 + Rng.int jitter 90)
            done);
        Chip.boot th
      done;
      Sim.run sim;
      let expect_sum =
        (* 1 + 2 + ... + total: payloads are distinct consecutive ints. *)
        Int64.of_int (total * (total + 1) / 2)
      in
      Bqueue.produced q = total
      && Bqueue.consumed q = total
      && Bqueue.length q = 0
      && Bqueue.produced q = Bqueue.consumed q + Bqueue.length q
      && !consumed_n = total
      && Int64.equal !consumed_sum expect_sum)

(* --- allocation ------------------------------------------------------------ *)

(* A steady poll loop allocates nothing per read: 0.0 minor words on
   OCaml 5.1; 2.0 while spin loops read through [Atomics.read ~kind],
   whose optional argument, passed on as a variable, allocated a [Some]
   per call.  Measured inside the polling thread, as the difference
   between two loop lengths. *)
let test_poll_allocation () =
  let words reads =
    let sim = Sim.create () in
    let chip = Chip.create sim params ~cores:1 in
    let word = Memory.alloc (Chip.memory chip) 1 in
    let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
    let words = ref nan in
    Chip.attach th (fun t ->
        let before = Gc.minor_words () in
        for _ = 1 to reads do
          ignore (Atomics.poll chip t word : int64)
        done;
        words := Gc.minor_words () -. before);
    Chip.boot th;
    Sim.run sim;
    !words
  in
  ignore (words 100 : float);
  let per_read = (words 20_000 -. words 10_000) /. 10_000.0 in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per poll = 0" per_read) true (per_read = 0.0)

let () =
  Alcotest.run "sync"
    [
      ( "lockstep",
        [
          QCheck_alcotest.to_alcotest prop_mutual_exclusion;
          QCheck_alcotest.to_alcotest prop_ticket_fifo;
          QCheck_alcotest.to_alcotest prop_mcs_fifo;
          QCheck_alcotest.to_alcotest prop_parking_waiter_set;
          QCheck_alcotest.to_alcotest prop_bqueue_conservation;
        ] );
      ("alloc", [ Alcotest.test_case "steady poll loop" `Quick test_poll_allocation ]);
    ]
