(* The pool-size checker: a path whose pool, population or queue grows
   must not cost more minor words per operation.  Each case runs its
   path in steady state at a size N and at 10N and reads the words per
   operation as the difference of two run lengths, so that set-up and
   warm-up (array growth) cancel; the two readings must be equal.  The
   readings are recorded per OCaml version below: on a recorded version
   each must also match its figure, on any other only the equality is
   checked. *)

module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Monitor = Switchless.Monitor
module Ptid = Switchless.Ptid
module State_store = Switchless.State_store
module Hw_dispatch = Switchless.Hw_dispatch
module Swsched = Sl_baseline.Swsched
module Server = Sl_dist.Server
module Sched_policy = Sl_dist.Sched_policy
module Dist = Sl_util.Dist

let recorded =
  match Sys.ocaml_version with
  | "5.1.1" ->
    [
      ("hw_dispatch Fifo", 16.0);
      ("hw_dispatch Lifo", 16.0);
      ("hw_dispatch Locality", 16.0);
      ("swsched exec", 0.0);
      ("swsched handoff", 8.0);
      ("mailbox send and recv", 9.0);
      ("sched_policy admission", 130.468);
      ("chip park and wake", 7.0);
      ("state_store wake", 0.0);
      ("monitor arm and disarm", 0.0);
    ]
  | _ -> []

(* [tolerance] is for a path whose simulated timing, not its words per
   operation, moves with the size (see the Sched_policy case). *)
let check_flat name ?(tolerance = 0.0) ~small ~large per_op =
  let a = per_op small and b = per_op large in
  let close x y = Float.abs (x -. y) <= tolerance in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f words per op at %d, %.3f at %d" name a small b large)
    true (close a b);
  match List.assoc_opt name recorded with
  | None -> ()
  | Some w ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f words per op, %.3f recorded for OCaml %s" name a w
         Sys.ocaml_version)
      true (close a w)

(* Words of [run n] per operation, after a warm-up run. *)
let per_op run ~ops =
  ignore (run (ops / 10) : float);
  (run (2 * ops) -. run ops) /. float_of_int ops

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* --- Hw_dispatch: a dispatch with the whole pool parked --- *)

let dispatch_world policy n_workers =
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores:1 in
  let d = Hw_dispatch.create chip ~core:0 ~policy () in
  let handled = ref [] in
  for i = 1 to n_workers do
    let th = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
    Chip.attach th (fun th ->
        Hw_dispatch.worker_loop d th (fun payload ->
            Isa.exec th 100;
            handled := (i, payload) :: !handled));
    Chip.boot th
  done;
  (sim, d, handled)

(* Items submitted one at a time, each handled before the next, after
   every worker has booted and parked: 16 words per dispatch for every
   policy, 6 of them the handler's own list cell and pair.  A parked list that Fifo rebuilt and Locality filtered on
   each pick cost 383 words at 60 workers and 3,623 at 600 (Fifo), 216
   and 1,836 (Locality); Lifo 29 at both. *)
let dispatch_words policy workers =
  per_op ~ops:1_000 (fun items ->
      let sim, d, handled = dispatch_world policy workers in
      Sim.spawn sim (fun () ->
          Sim.delay 1_000_000;
          for item = 1 to items do
            Hw_dispatch.submit d (Int64.of_int item);
            Sim.delay 2_000
          done);
      let words = minor_words (fun () -> Sim.run sim) in
      Alcotest.(check int) "every item handled" items (List.length !handled);
      words)

let test_hw_dispatch () =
  List.iter
    (fun (name, policy) ->
      check_flat ("hw_dispatch " ^ name) ~small:60 ~large:600 (dispatch_words policy))
    [ ("Fifo", Hw_dispatch.Fifo); ("Lifo", Hw_dispatch.Lifo); ("Locality", Hw_dispatch.Locality) ]

(* --- Swsched: an exec on an idle scheduler --- *)

(* One thread executing alone, so every exec takes the idle context it
   last ran (the affinity pick) and gives it back: nothing allocated on
   1 core or on 10.  Idle contexts in a list cost 12 words per exec on 1
   core and 66 on 10: a [List.filter] rebuilt the list on every pick,
   and a [Some] named the context last run. *)
let swsched_words cores =
  per_op ~ops:1_000 (fun n ->
      let sim = Sim.create () in
      let sched = Swsched.create sim Params.default ~cores () in
      let th = Swsched.thread sched () in
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            Swsched.exec th 10
          done);
      minor_words (fun () -> Sim.run sim))

(* Two threads per context, each exec a 100-cycle quantum: every exec
   switches, and every release hands its context to the oldest thread
   waiting on the run queue.  8 words per exec on 1 core or on 10 (30
   when each waiter built an ivar in a queue cell). *)
let swsched_handoff_words cores =
  per_op ~ops:1_000 (fun n ->
      let sim = Sim.create () in
      let sched = Swsched.create sim Params.default ~quantum:100 ~cores () in
      let threads = 2 * Swsched.context_count sched in
      for _ = 1 to threads do
        let th = Swsched.thread sched () in
        Sim.spawn sim (fun () ->
            for _ = 1 to n do
              Swsched.exec th 100
            done)
      done;
      minor_words (fun () -> Sim.run sim) /. float_of_int threads)

let test_swsched () =
  check_flat "swsched exec" ~small:1 ~large:10 swsched_words;
  check_flat "swsched handoff" ~small:1 ~large:10 swsched_handoff_words

(* --- Mailbox: a send and its receive with receivers blocked --- *)

(* [receivers] processes block in [recv]; a sender sends one item a
   tick, which wakes the oldest, and the woken receiver blocks again
   behind the others before the next send.  The item's [Some] and the
   two continuations: 9 words with 1 receiver blocked or 100. *)
let mailbox_words receivers =
  per_op ~ops:2_000 (fun n ->
      let sim = Sim.create () in
      let mb = Mailbox.create () in
      let got = ref 0 in
      for _ = 1 to receivers do
        Sim.spawn sim (fun () ->
            while true do
              Mailbox.recv mb;
              incr got
            done)
      done;
      Sim.spawn sim (fun () ->
          for _ = 1 to n do
            Sim.delay 1;
            Mailbox.send mb ()
          done);
      let words = minor_words (fun () -> Sim.run sim) in
      Alcotest.(check int) "every item received" n !got;
      words)

let test_mailbox () = check_flat "mailbox send and recv" ~small:1 ~large:100 mailbox_words

(* --- Sched_policy: admissions while the pool is exhausted --- *)

(* A burst of requests arrives while the pool's workers boot, so every
   admission fails until workers announce themselves, and then the
   requests run first come, first served on two contexts.  A failed
   admission copied the whole request queue to put its head back: 177.9
   words per request at 16 workers and 170.4 at 160.  Peeking at the
   head reads 132.5 at both.  The larger pool boots longer, so its run
   starts 567 cycles later and reads 0.014 words per request fewer:
   timing, not a path that grows, hence the tolerance. *)
let sched_policy_words pool =
  per_op ~ops:1_000 (fun count ->
      let cfg =
        {
          Server.params = Params.default;
          seed = 3L;
          cores = 1;
          rate_per_kcycle = 1_000.0;
          service = Dist.Constant 1_000.0;
          count;
        }
      in
      minor_words (fun () ->
          let stats = Sched_policy.run ~pool ~mode:Sched_policy.Fcfs cfg in
          Alcotest.(check int) "every request completed" count stats.Server.completed))

let test_sched_policy () =
  check_flat "sched_policy admission" ~tolerance:0.05 ~small:16 ~large:160 sched_policy_words

(* --- Chip: a parked thread woken by a write, back to parked --- *)

(* [threads] threads on one core, each armed on its own doorbell and
   looping in [mwait]; a plain process writes the doorbells round
   robin, one write every 1,000 cycles, so each woken thread is parked
   again before the next write.  A round trip is the monitor's wake,
   the chip's delivery event, the thread's wake transfer and its next
   park: 7 words with 100 threads parked or 1,000. *)
let park_wake_words threads =
  per_op ~ops:2_000 (fun n ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:1 in
      let memory = Chip.memory chip in
      let base = Memory.alloc memory threads in
      let woken = ref 0 in
      let body th =
        Isa.monitor th (base + Chip.ptid th - 1);
        while true do
          ignore (Isa.mwait th : Memory.addr);
          incr woken
        done
      in
      for ptid = 1 to threads do
        let th = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.User () in
        Chip.attach th body;
        Chip.boot th
      done;
      Sim.spawn sim (fun () ->
          Sim.delay 1_000_000;
          for i = 0 to n - 1 do
            Memory.write memory (base + (i mod threads)) 1L;
            Sim.delay 1_000
          done);
      let words = minor_words (fun () -> Sim.run sim) in
      Alcotest.(check int) "every write woke its thread" n !woken;
      words)

let test_chip () = check_flat "chip park and wake" ~small:100 ~large:1_000 park_wake_words

(* --- State_store: a wake transfer --- *)

(* [entries] contexts of 1 KB registered in one store, woken round
   robin: with more contexts than the register file holds (64), each
   wake promotes the coldest context and demotes others down the tiers.
   Nothing allocated with 1,000 contexts or 10,000 (most of them in
   DRAM). *)
let store_wake_words entries =
  per_op ~ops:10_000 (fun n ->
      let store = State_store.create Params.default in
      let contexts =
        Array.init entries (fun ptid -> State_store.register store ~ptid ~bytes:1_024)
      in
      let words =
        minor_words (fun () ->
            for i = 0 to n - 1 do
              ignore (State_store.wake_transfer_cycles store contexts.(i mod entries) : int)
            done)
      in
      Alcotest.(check bool) "wakes demote contexts" true (State_store.demotion_count store > 0);
      words)

let test_state_store () =
  check_flat "state_store wake" ~small:1_000 ~large:10_000 store_wake_words

(* --- Monitor: an arm and a disarm --- *)

(* [slots] slots of one core, each armed on its own address; an
   operation disarms one slot, round robin, and arms it again: nothing
   allocated with 100 slots armed or 1,000. *)
let monitor_words slots =
  per_op ~ops:10_000 (fun n ->
      let monitor = Monitor.create Params.default in
      let addr slot = 1_000 + slot in
      for _ = 1 to slots do
        let slot = Monitor.register monitor ~core_id:0 in
        Monitor.arm monitor slot (addr slot)
      done;
      minor_words (fun () ->
          for i = 0 to n - 1 do
            let slot = i mod slots in
            Monitor.disarm_all monitor slot;
            Monitor.arm monitor slot (addr slot)
          done))

let test_monitor () = check_flat "monitor arm and disarm" ~small:100 ~large:1_000 monitor_words

let () =
  Alcotest.run "pool"
    [
      ( "words_per_op",
        [
          Alcotest.test_case "hw_dispatch dispatch" `Quick test_hw_dispatch;
          Alcotest.test_case "swsched exec" `Quick test_swsched;
          Alcotest.test_case "mailbox send and recv" `Quick test_mailbox;
          Alcotest.test_case "sched_policy admission" `Slow test_sched_policy;
          Alcotest.test_case "chip park and wake" `Quick test_chip;
          Alcotest.test_case "state_store wake" `Quick test_state_store;
          Alcotest.test_case "monitor arm and disarm" `Quick test_monitor;
        ] );
    ]
