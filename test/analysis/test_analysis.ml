(* Tests for the analysis library: the race detector must flag seeded
   racy and stale-TDT workloads, stay silent on properly synchronized
   ones, and the sanitizers must catch their respective rule
   violations. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Memory = Switchless.Memory
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Tdt = Switchless.Tdt
module Probe = Switchless.Probe
module State_store = Switchless.State_store
module Hw_channel = Sl_os.Hw_channel
module Analysis = Sl_analysis.Analysis
module Report = Sl_analysis.Report
module Vclock = Sl_analysis.Vclock
module Sanitizer = Sl_analysis.Sanitizer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p = Params.default

let setup ?(cores = 2) () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores in
  (sim, chip)

let rules findings = List.map (fun f -> f.Report.rule) findings

let has_rule rule findings = List.mem rule (rules findings)

let strict = { Analysis.check_reads = true }

(* --- vector clocks --- *)

let test_vclock_basics () =
  let a = Vclock.create () in
  check_int "zero" 0 (Vclock.get a 3);
  Vclock.tick a 3;
  Vclock.tick a 3;
  check_int "ticked" 2 (Vclock.get a 3);
  let b = Vclock.create () in
  Vclock.tick b 7;
  let snap = Vclock.copy b in
  Vclock.merge ~into:a b;
  check_int "merged" 1 (Vclock.get a 7);
  check_int "kept own" 2 (Vclock.get a 3);
  Vclock.tick b 7;
  check_int "copy unaffected by later ticks" 1 (Vclock.get snap 7)

(* --- race detector --- *)

(* Two threads store to the same word with no ordering edge at all. *)
let test_racy_workload_flagged () =
  let sim, chip = setup () in
  let an = Analysis.enable chip in
  let shared = Memory.alloc (Chip.memory chip) 1 in
  let mk ptid core delay =
    let th = Chip.add_thread chip ~core ~ptid ~mode:Ptid.Supervisor () in
    Chip.attach th (fun th ->
        Sim.delay delay;
        (* Repeated conflicting stores: still one deduplicated finding. *)
        for i = 1 to 3 do
          Isa.store th shared (Int64.of_int i)
        done);
    Chip.boot th
  in
  mk 1 0 10;
  mk 2 1 12;
  Sim.run sim;
  let findings = Analysis.finish an in
  check_bool "write-write race reported" true (has_rule "race" findings);
  check_int "deduplicated to one finding" 1 (List.length findings);
  let f = List.hd findings in
  check_bool "finding carries trace context" true (f.Report.context <> [])

(* Same conflicting stores, but ordered through a start edge: the parent
   stores, then starts the child, which stores. *)
let test_start_edge_orders_accesses () =
  let sim, chip = setup () in
  let an = Analysis.enable chip in
  let shared = Memory.alloc (Chip.memory chip) 1 in
  let table = Tdt.create () in
  let parent = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let child = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Tdt.set table ~vtid:9 ~ptid:2 Tdt.perms_all;
  Chip.set_tdt parent table;
  Chip.attach parent (fun th ->
      Isa.store th shared 1L;
      Isa.start th ~vtid:9);
  Chip.attach child (fun th -> Isa.store th shared 2L);
  Chip.boot parent;
  Sim.run sim;
  check_int "no findings" 0 (List.length (Analysis.finish an))

(* A doorbell wakeup is an ordering edge: the waiter's post-wake stores
   are ordered after everything the ringer did before ringing. *)
let test_mwait_wake_edge_orders_accesses () =
  let sim, chip = setup () in
  let an = Analysis.enable chip in
  let mem = Chip.memory chip in
  let doorbell = Memory.alloc mem 1 in
  let data = Memory.alloc mem 1 in
  let waiter = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let ringer = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach waiter (fun th ->
      Isa.monitor th doorbell;
      ignore (Isa.mwait th : Memory.addr);
      Isa.store th data 2L);
  Chip.attach ringer (fun th ->
      Sim.delay 100;
      Isa.store th data 1L;
      Isa.store th doorbell 1L);
  Chip.boot waiter;
  Chip.boot ringer;
  Sim.run sim;
  check_int "no findings" 0 (List.length (Analysis.finish an))

(* Unsynchronized read vs write: invisible to the default coherent model,
   reported under [check_reads]. *)
let test_strict_mode_flags_read_write () =
  let run config =
    let sim, chip = setup () in
    let an = Analysis.enable ~config chip in
    let shared = Memory.alloc (Chip.memory chip) 1 in
    let writer = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
    let reader = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
    Chip.attach writer (fun th ->
        Sim.delay 10;
        Isa.store th shared 1L);
    Chip.attach reader (fun th ->
        Sim.delay 20;
        ignore (Isa.load th shared : int64));
    Chip.boot writer;
    Chip.boot reader;
    Sim.run sim;
    Analysis.finish an
  in
  check_int "coherent model: silent" 0 (List.length (run Analysis.default_config));
  check_bool "strict model: reported" true (has_rule "race" (run strict))

(* Eight unordered readers, then one write: the read-write races come
   out by reader ptid, whatever order the reader table hashes them in. *)
let test_strict_mode_reports_readers_by_ptid () =
  let sim, chip = setup () in
  let an = Analysis.enable ~config:strict chip in
  let shared = Memory.alloc (Chip.memory chip) 1 in
  for ptid = 2 to 9 do
    let reader = Chip.add_thread chip ~core:1 ~ptid ~mode:Ptid.Supervisor () in
    Chip.attach reader (fun th ->
        Sim.delay 10;
        ignore (Isa.load th shared : int64));
    Chip.boot reader
  done;
  let writer = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach writer (fun th ->
      Sim.delay 100;
      Isa.store th shared 1L);
  Chip.boot writer;
  Sim.run sim;
  let reader f =
    Scanf.sscanf f.Report.message
      "read-write race on [%_s@]: write by ptid %_d (t=%_d) vs read by ptid %d" Fun.id
  in
  Alcotest.(check (list int))
    "racing readers in ptid order" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map reader (Analysis.finish an))

(* --- stale TDT --- *)

let test_stale_tdt_flagged () =
  let run ~invalidate =
    let sim, chip = setup () in
    let an = Analysis.enable chip in
    let table = Tdt.create () in
    let manager = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
    let worker_a = Chip.add_thread chip ~core:0 ~ptid:2 ~mode:Ptid.Supervisor () in
    let worker_b = Chip.add_thread chip ~core:0 ~ptid:3 ~mode:Ptid.Supervisor () in
    Chip.attach worker_a (fun th -> Isa.exec th 10);
    Chip.attach worker_b (fun th -> Isa.exec th 10);
    Tdt.set table ~vtid:5 ~ptid:2 Tdt.perms_all;
    Chip.set_tdt manager table;
    Chip.attach manager (fun th ->
        Isa.start th ~vtid:5 (* miss: caches vtid 5 -> ptid 2 *);
        Sim.delay 1000;
        (* Retarget vtid 5 (a supervisor updating the table in memory)... *)
        Tdt.set table ~vtid:5 ~ptid:3 Tdt.perms_all;
        (* ...with or without the required invalidation. *)
        if invalidate then Isa.invtid th ~vtid:5;
        Isa.start th ~vtid:5);
    Chip.boot manager;
    Sim.run sim;
    Analysis.finish an
  in
  check_bool "missing invtid reported" true (has_rule "stale-tdt" (run ~invalidate:false));
  check_bool "proper invtid: silent" false (has_rule "stale-tdt" (run ~invalidate:true))

(* --- deadlock --- *)

(* A and B each ring the other's doorbell once, consume the latched
   trigger, then park again: nothing can ever wake either. *)
let test_mwait_cycle_flagged () =
  let sim, chip = setup () in
  let an = Analysis.enable chip in
  let mem = Chip.memory chip in
  let db_a = Memory.alloc mem 1 in
  let db_b = Memory.alloc mem 1 in
  let mk ptid core ~own ~other =
    let th = Chip.add_thread chip ~core ~ptid ~mode:Ptid.Supervisor () in
    Chip.attach th (fun th ->
        Isa.monitor th own;
        Isa.exec th 50;
        Isa.store th other 1L;
        ignore (Isa.mwait th : Memory.addr);
        ignore (Isa.mwait th : Memory.addr));
    Chip.boot th
  in
  mk 1 0 ~own:db_a ~other:db_b;
  mk 2 1 ~own:db_b ~other:db_a;
  Sim.run sim;
  let findings = Analysis.finish an in
  check_bool "deadlock reported" true (has_rule "deadlock" findings);
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "engine stuck report wired in" true
    (List.exists
       (fun f -> f.Report.rule = "deadlock" && contains f.Report.message "still blocked")
       findings)

(* Idle workers parked on doorbells that were never rung, or rung only by
   an untracked dispatcher (DMA-style raw write), are not deadlocks. *)
let test_parked_workers_not_flagged () =
  let sim, chip = setup () in
  let an = Analysis.enable chip in
  let mem = Chip.memory chip in
  let fresh = Memory.alloc mem 1 in
  let external_db = Memory.alloc mem 1 in
  let mk ptid db =
    let th = Chip.add_thread chip ~core:0 ~ptid ~mode:Ptid.Supervisor () in
    Chip.attach th (fun th ->
        Isa.monitor th db;
        ignore (Isa.mwait th : Memory.addr);
        ignore (Isa.mwait th : Memory.addr));
    Chip.boot th
  in
  mk 1 fresh;
  mk 2 external_db;
  (* A dispatcher process (not a chip thread) rings only the second. *)
  Sim.spawn sim (fun () ->
      Sim.delay 200;
      Memory.write mem external_db 1L);
  Sim.run sim;
  check_int "idle pool is not a deadlock" 0 (List.length (Analysis.finish an))

let test_mwait_without_monitor_flagged () =
  let sim, chip = setup () in
  let an = Analysis.enable chip in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach th (fun th -> ignore (Isa.mwait th : Memory.addr));
  Chip.boot th;
  Sim.run sim;
  check_bool "unwakeable park reported" true (has_rule "mwait" (Analysis.finish an))

(* --- lifecycle sanitizer (synthetic events) --- *)

let test_lifecycle_sanitizer_synthetic () =
  let _, chip = setup () in
  let got = ref [] in
  let san =
    Sanitizer.create ~chip
      ~report:(fun ~rule ~key:_ ~message:_ -> got := rule :: !got)
      ~writers:(fun _ -> [])
  in
  (* Legal: Disabled -> Runnable -> Waiting. *)
  Sanitizer.on_event san
    (Probe.State_change
       { ptid = 1; from_ = Ptid.Disabled; to_ = Ptid.Runnable; reason = "boot" });
  Sanitizer.on_event san
    (Probe.State_change
       { ptid = 1; from_ = Ptid.Runnable; to_ = Ptid.Waiting; reason = "mwait-park" });
  (* A parked thread leaves Waiting for Runnable by its wake or its
     deadline, never by a start. *)
  List.iter
    (fun reason ->
      Sanitizer.on_event san
        (Probe.State_change { ptid = 1; from_ = Ptid.Waiting; to_ = Ptid.Runnable; reason });
      Sanitizer.on_event san
        (Probe.State_change
           { ptid = 1; from_ = Ptid.Runnable; to_ = Ptid.Waiting; reason = "mwait-park" }))
    [ "mwait-wake"; "mwait-deadline" ];
  check_int "legal transitions silent" 0 (List.length !got);
  Sanitizer.on_event san
    (Probe.State_change
       { ptid = 1; from_ = Ptid.Waiting; to_ = Ptid.Runnable; reason = "start-wake" });
  check_bool "a start waking a parked thread reported" true (List.mem "lifecycle" !got);
  got := [];
  (* Illegal: Disabled -> Waiting (and diverges from the mirror). *)
  Sanitizer.on_event san
    (Probe.State_change
       { ptid = 1; from_ = Ptid.Disabled; to_ = Ptid.Waiting; reason = "bogus" });
  check_bool "illegal transition reported" true (List.mem "lifecycle" !got)

let test_state_store_check_healthy () =
  let store = State_store.create p in
  ignore (State_store.register store ~ptid:1 ~bytes:512 : State_store.entry);
  let e2 = State_store.register store ~ptid:2 ~bytes:2048 in
  ignore (State_store.wake_transfer_cycles store e2 : int);
  Alcotest.(check (list string)) "healthy store" [] (State_store.check store)

(* --- clean end-to-end workload --- *)

let test_hw_channel_clean_under_sanitizers () =
  let (), findings =
    Analysis.with_all (fun () ->
        let sim = Sim.create () in
        let chip = Chip.create sim p ~cores:2 in
        let channel = Hw_channel.create chip ~core:1 ~server_ptid:500 () in
        let served = ref 0 in
        let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
        Chip.attach client (fun th ->
            for _ = 1 to 5 do
              Hw_channel.call channel ~client:th ~work:100 ();
              incr served
            done);
        Chip.boot client;
        Sim.run sim;
        check_int "all calls completed" 5 !served)
  in
  Alcotest.(check (list string)) "no findings" [] (rules findings)

let () =
  Alcotest.run "analysis"
    [
      ("vclock", [ Alcotest.test_case "basics" `Quick test_vclock_basics ]);
      ( "race",
        [
          Alcotest.test_case "racy workload flagged" `Quick test_racy_workload_flagged;
          Alcotest.test_case "start edge orders" `Quick test_start_edge_orders_accesses;
          Alcotest.test_case "wake edge orders" `Quick test_mwait_wake_edge_orders_accesses;
          Alcotest.test_case "strict mode reads" `Quick test_strict_mode_flags_read_write;
          Alcotest.test_case "strict mode reader order" `Quick
            test_strict_mode_reports_readers_by_ptid;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "stale tdt" `Quick test_stale_tdt_flagged;
          Alcotest.test_case "mwait cycle" `Quick test_mwait_cycle_flagged;
          Alcotest.test_case "idle pool ok" `Quick test_parked_workers_not_flagged;
          Alcotest.test_case "mwait without monitor" `Quick test_mwait_without_monitor_flagged;
          Alcotest.test_case "lifecycle rules" `Quick test_lifecycle_sanitizer_synthetic;
          Alcotest.test_case "state store healthy" `Quick test_state_store_check_healthy;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "hw channel clean" `Quick test_hw_channel_clean_under_sanitizers;
        ] );
    ]
