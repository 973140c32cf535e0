(* Failure-hardened OS paths: the sequence-numbered channel protocol,
   bounded channel calls (lock + response timeouts), the watchdog sweep,
   and the degraded-mode I/O loop. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Memory = Switchless.Memory
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Nic = Sl_dev.Nic
module Hw_channel = Sl_os.Hw_channel
module Watchdog = Sl_os.Watchdog
module Io_path = Sl_os.Io_path
module Fault = Sl_fault.Fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A recovery site's count over the given worlds. *)
let site worlds name = Option.value ~default:0 (List.assoc_opt name (Sim.counts worlds))

let p = Params.default

(* --- sequence-numbered protocol, healthy substrate ------------------------ *)

let test_robust_channel_serves_all () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let ch = Hw_channel.create chip ~core:1 ~server_ptid:10 () in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach client (fun th ->
      for _ = 1 to 20 do
        Hw_channel.call ch ~client:th ~work:100 ()
      done);
  Chip.boot client;
  Sim.run sim;
  check_int "all served" 20 (Hw_channel.served ch);
  check_int "no retries needed" 0 (site [ sim ] "chan.retry")

let test_call_with_deadline_ok_when_healthy () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let ch = Hw_channel.create chip ~core:1 ~server_ptid:10 () in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let oks = ref 0 in
  Chip.attach client (fun th ->
      for _ = 1 to 20 do
        match
          Hw_channel.call_with_deadline ch ~client:th ~timeout:10_000
            ~work:100 ()
        with
        | Ok () -> incr oks
        | Error e -> Alcotest.failf "unexpected %a" Hw_channel.pp_call_error e
      done);
  Chip.boot client;
  Sim.run sim;
  check_int "all calls ok" 20 !oks;
  check_int "no retries" 0 (site [ sim ] "chan.retry")

(* Every start is idempotent: a start that carries no new request (here
   rung by a second supervisor thread) finds the sequence word already
   served and stops without serving the stale request again. *)
let test_duplicate_start_served_once () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:3 in
  let ch = Hw_channel.create chip ~core:1 ~server_ptid:10 () in
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let ringer = Chip.add_thread chip ~core:2 ~ptid:2 ~mode:Ptid.Supervisor () in
  let served = ref [] in
  let note () = served := Hw_channel.served ch :: !served in
  Chip.attach ringer (fun th ->
      Isa.exec th 2_000;  (* well after the first call returned *)
      Isa.start th ~vtid:(Hw_channel.server_ptid ch));
  Chip.attach client (fun th ->
      Hw_channel.call ch ~client:th ~work:100 ();
      note ();
      Isa.exec th 5_000;  (* the duplicate start lands in here *)
      note ();
      Hw_channel.call ch ~client:th ~work:100 ();
      note ());
  Chip.boot client;
  Chip.boot ringer;
  Sim.run sim;
  Alcotest.(check (list int)) "served after call, duplicate start, call"
    [ 1; 1; 2 ] (List.rev !served);
  check_int "served in all" 2 (Hw_channel.served ch)

(* --- timeouts behind a wedged server -------------------------------------- *)

(* The server parks forever on an address nobody writes: the first caller
   must come back with [`Response_timeout] after its retries, and a
   second caller parked behind the reservation must get [`Lock_timeout]
   instead of inheriting the hang. *)
let test_wedged_server_times_out_both_callers () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let dead_addr = Memory.alloc (Chip.memory chip) 1 in
  let ch =
    Hw_channel.create chip ~core:1 ~server_ptid:10
      ~on_request:(fun th _work ->
        Isa.monitor th dead_addr;
        let _ = Isa.mwait th in
        ())
      ()
  in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let b = Chip.add_thread chip ~core:0 ~ptid:2 ~mode:Ptid.Supervisor () in
  let a_result = ref None and b_result = ref None and b_done_at = ref 0 in
  Chip.attach a (fun th ->
      a_result :=
        Some
          (Hw_channel.call_with_deadline ch ~client:th ~max_retries:2
             ~timeout:1_000 ~work:1 ()));
  Chip.attach b (fun th ->
      Isa.exec th 50;  (* issue strictly after [a] holds the lock *)
      b_result :=
        Some
          (Hw_channel.call_with_deadline ch ~client:th ~max_retries:2
             ~timeout:1_000 ~work:1 ());
      b_done_at := Sim.now ());
  Chip.boot a;
  Chip.boot b;
  Sim.run sim;
  check_bool "first caller response-timeout" true
    (!a_result = Some (Error `Response_timeout));
  check_bool "second caller lock-timeout" true
    (!b_result = Some (Error `Lock_timeout));
  (* b gave up after its own bounded lock wait, long before a's full
     retry ladder (1k+2k+4k) would have released the lock. *)
  check_bool "second caller bailed early" true
    (!b_done_at < 2_500);
  check_int "retries re-rang the doorbell" 2 (site [ sim ] "chan.retry")

(* --- lost wakeups: retries and the watchdog ------------------------------- *)

let run_faulted_calls plan =
  let inj = Fault.create plan in
  Fault.with_ambient inj (fun () ->
      let sim = Sim.create () in
      let chip = Chip.create sim p ~cores:2 in
      let ch = Hw_channel.create chip ~core:1 ~server_ptid:10 () in
      let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
      let oks = ref 0 in
      Chip.attach client (fun th ->
          for _ = 1 to 50 do
            match
              Hw_channel.call_with_deadline ch ~client:th ~timeout:5_000
                ~work:100 ()
            with
            | Ok () -> incr oks
            | Error e ->
              Alcotest.failf "call failed: %a" Hw_channel.pp_call_error e
          done);
      Chip.boot client;
      Sim.run sim;
      (!oks, site [ sim ] "chan.retry", inj))

let test_call_with_deadline_recovers_lost_wakeups () =
  (* A lost wake delivery leaves the response word already written, so
     the post-timeout recheck recovers without re-ringing the server. *)
  let ok, retries, inj =
    run_faulted_calls { Fault.none with Fault.seed = 21L; mwait_lost = 0.4 }
  in
  check_int "every call recovered" 50 ok;
  check_bool "losses actually fired" true (Fault.count inj "mwait.lost" > 0);
  check_int "recheck recovered without retries" 0 retries

let test_call_with_deadline_retries_delayed_starts () =
  (* A delayed start hand-off stalls the server past the client's
     deadline: the response word stays unwritten, so recovery must go
     through the retry ladder (re-issuing the start). *)
  let ok, retries, inj =
    run_faulted_calls
      {
        Fault.none with
        Fault.seed = 22L;
        start_delay = 0.3;
        start_delay_cycles = 20_000;
      }
  in
  check_int "every call recovered" 50 ok;
  check_bool "delays actually fired" true (Fault.count inj "start.delay" > 0);
  check_bool "recovery went through retries" true (retries > 0)

let test_watchdog_rescues_parked_thread () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let wd = Watchdog.create chip ~core:0 ~ptid:99 ~period:5_000 ~stuck_after:8_000 () in
  let rescued = ref false in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach a (fun th ->
      Isa.monitor th addr;
      (* Nobody ever writes [addr]: only the watchdog's value-preserving
         re-store can wake this thread. *)
      let _ = Isa.mwait th in
      rescued := true;
      Watchdog.stop wd);
  Chip.boot a;
  Watchdog.start wd;
  Sim.run sim;
  check_bool "nudged awake" true !rescued;
  check_bool "nudge counted" true (site [ sim ] "watchdog.nudge" >= 1);
  check_bool "nothing left stuck" true (Sim.suspects sim = [])

let test_watchdog_leaves_healthy_threads_alone () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let mem = Chip.memory chip in
  let addr = Memory.alloc mem 1 in
  let wd = Watchdog.create chip ~core:0 ~ptid:99 ~period:5_000 ~stuck_after:8_000 () in
  let wakes = ref 0 in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach a (fun th ->
      Isa.monitor th addr;
      (* Woken every 2k cycles — never blocked past stuck_after. *)
      for _ = 1 to 10 do
        let _ = Isa.mwait th in
        incr wakes
      done;
      Watchdog.stop wd);
  Chip.boot a;
  Watchdog.start wd;
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        Sim.delay 2_000;
        Memory.write mem addr 1L
      done);
  Sim.run sim;
  check_int "all real wakeups" 10 !wakes;
  check_int "no nudges" 0 (site [ sim ] "watchdog.nudge")

(* --- degraded-mode I/O loop ----------------------------------------------- *)

let io_cfg = { Io_path.default_config with Io_path.count = 300 }

(* The hardened path counts its recoveries in the world it builds: the
   result comes back with that world's count of each site. *)
let hardened cfg =
  let worlds = ref [] in
  let r =
    Sim.observing ~key:"test"
      (function Sim.World w -> worlds := w :: !worlds | _ -> ())
      (fun () ->
        Io_path.run (Io_path.Mwait_hardened { watchdog = false; horizon = None }) cfg)
  in
  (r, site !worlds)

let test_hardened_io_matches_mwait_when_healthy () =
  let plain = (Io_path.run Io_path.Mwait io_cfg).Io_path.io in
  let r, site = hardened io_cfg in
  check_int "same packets processed" plain.Io_path.processed
    r.Io_path.io.Io_path.processed;
  check_int "no fallbacks" 0 (site "io.fallback");
  check_int "no missed wakeups" 0 (site "io.missed_wakeup")

let test_hardened_io_survives_total_doorbell_loss () =
  (* Every doorbell lost: pure deadline-driven operation must still
     deliver every packet (degrading to polling as designed). *)
  let plan = { Fault.none with Fault.seed = 31L; nic_doorbell_drop = 1.0 } in
  let inj = Fault.create plan in
  let r, site = Fault.with_ambient inj (fun () -> hardened io_cfg) in
  check_int "all packets processed" io_cfg.Io_path.count
    r.Io_path.io.Io_path.processed;
  check_bool "fell back to polling" true (site "io.fallback" > 0)

let test_hardened_io_accounts_for_vanished_packets () =
  let plan = { Fault.none with Fault.seed = 32L; nic_dma_drop = 0.2 } in
  let inj = Fault.create plan in
  let r, _ = Fault.with_ambient inj (fun () -> hardened io_cfg) in
  let io = r.Io_path.io in
  check_bool "some packets vanished" true (io.Io_path.dma_dropped > 0);
  check_int "processed + vanished = offered" io_cfg.Io_path.count
    (io.Io_path.processed + io.Io_path.dma_dropped + io.Io_path.dropped)

let () =
  Alcotest.run "hardening"
    [
      ( "robust channel",
        [
          Alcotest.test_case "serves all" `Quick test_robust_channel_serves_all;
          Alcotest.test_case "deadline ok when healthy" `Quick
            test_call_with_deadline_ok_when_healthy;
          Alcotest.test_case "a duplicate start is served once" `Quick
            test_duplicate_start_served_once;
          Alcotest.test_case "wedged server times out" `Quick
            test_wedged_server_times_out_both_callers;
          Alcotest.test_case "recovers lost wakeups" `Quick
            test_call_with_deadline_recovers_lost_wakeups;
          Alcotest.test_case "retries delayed starts" `Quick
            test_call_with_deadline_retries_delayed_starts;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "rescues parked thread" `Quick
            test_watchdog_rescues_parked_thread;
          Alcotest.test_case "leaves healthy alone" `Quick
            test_watchdog_leaves_healthy_threads_alone;
        ] );
      ( "hardened io",
        [
          Alcotest.test_case "matches mwait when healthy" `Quick
            test_hardened_io_matches_mwait_when_healthy;
          Alcotest.test_case "survives doorbell loss" `Quick
            test_hardened_io_survives_total_doorbell_loss;
          Alcotest.test_case "accounts vanished packets" `Quick
            test_hardened_io_accounts_for_vanished_packets;
        ] );
    ]
