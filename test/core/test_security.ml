(* Tests for the §3.2 secret-key capability scheme and per-thread billing. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Regstate = Switchless.Regstate
module Smt_core = Switchless.Smt_core
module Exception_desc = Switchless.Exception_desc
module Tdt = Switchless.Tdt

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

let p = Params.default

let setup () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  (sim, chip)

(* A supervisor handler on core 1 that restarts any faulting thread whose
   descriptors land at [desc]; returns the handled descriptors, newest
   first. *)
let install_handler chip desc =
  let faults = ref [] in
  let handler = Chip.add_thread chip ~core:1 ~ptid:900 ~mode:Ptid.Supervisor () in
  Chip.attach handler (fun th ->
      Isa.monitor th desc;
      let rec serve () =
        let _ = Isa.mwait th in
        let d = Exception_desc.read (Chip.memory chip) ~base:desc in
        faults := d :: !faults;
        Isa.start th ~vtid:d.Exception_desc.ptid;
        serve ()
      in
      serve ());
  Chip.boot handler;
  faults

let test_keyed_start_with_correct_key () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  let ran = ref false in
  Chip.attach target (fun th ->
      (* Publish our key, run, park; a keyed start resumes us. *)
      Isa.set_secret th 0xBEEFL;
      Isa.stop_keyed th ~target_ptid:10 ~key:0xBEEFL;
      ran := true);
  Chip.boot target;
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach user (fun th ->
      Sim.delay 100;
      Isa.start_keyed th ~target_ptid:10 ~key:0xBEEFL);
  Chip.boot user;
  Sim.run sim;
  check_bool "keyed start resumed the target" true !ran

let test_keyed_start_with_wrong_key_faults () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun th -> Isa.set_secret th 0xBEEFL);
  Chip.boot target;
  let desc = Memory.alloc (Chip.memory chip) Exception_desc.size_words in
  let faults = install_handler chip desc in
  let attacker = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs attacker) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  let after = ref Ptid.Runnable in
  Chip.attach attacker (fun th ->
      Sim.delay 100;
      Isa.stop_keyed th ~target_ptid:10 ~key:0xDEADL;
      after := Chip.state target);
  Chip.boot attacker;
  Sim.run sim;
  check_int "one permission fault" 1 (List.length !faults);
  check_bool "target untouched" true (!after = Ptid.Disabled || !after = Ptid.Runnable);
  (* The keyed stop must NOT have disabled the target before it parked on
     its own; here it had already returned, so Disabled is its own doing:
     check the attacker never gained control by verifying a register. *)
  check_i64 "no register tampering" 0L (Regstate.get (Chip.regs target) (Regstate.Gp 5))

let test_keyed_access_without_published_key_faults () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun _ -> ());
  let desc = Memory.alloc (Chip.memory chip) Exception_desc.size_words in
  let faults = install_handler chip desc in
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs user) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  Chip.attach user (fun th -> Isa.start_keyed th ~target_ptid:10 ~key:0L);
  Chip.boot user;
  Sim.run sim;
  check_int "no key published -> fault" 1 (List.length !faults);
  check_int "target not started" 0 (Chip.start_count target)

let test_keyed_rpush_rpull () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun th -> Isa.set_secret th 7L);
  Chip.boot target;
  let got = ref 0L in
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach user (fun th ->
      Sim.delay 100;
      (* Target has returned -> disabled; keyed remote access works. *)
      Isa.rpush_keyed th ~target_ptid:10 ~key:7L (Regstate.Gp 3) 99L;
      got := Isa.rpull_keyed th ~target_ptid:10 ~key:7L (Regstate.Gp 3));
  Chip.boot user;
  Sim.run sim;
  check_i64 "keyed register roundtrip" 99L !got

let test_keyed_rpush_privileged_reg_still_faults () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun th -> Isa.set_secret th 7L);
  Chip.boot target;
  let desc = Memory.alloc (Chip.memory chip) Exception_desc.size_words in
  let faults = install_handler chip desc in
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs user) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  Chip.attach user (fun th ->
      Sim.delay 100;
      (* Even with the key, control registers need supervisor mode. *)
      Isa.rpush_keyed th ~target_ptid:10 ~key:7L Regstate.Tdt_base 1L);
  Chip.boot user;
  Sim.run sim;
  check_int "privileged reg fault" 1 (List.length !faults);
  check_i64 "tdt base unchanged" 0L (Regstate.get (Chip.regs target) Regstate.Tdt_base)

let test_supervisor_bypasses_keys () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun th -> Isa.set_secret th 42L);
  Chip.boot target;
  let boss = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  let ok = ref false in
  Chip.attach boss (fun th ->
      Sim.delay 100;
      Isa.rpush_keyed th ~target_ptid:10 ~key:0L (Regstate.Gp 1) 5L;
      ok := true);
  Chip.boot boss;
  Sim.run sim;
  check_bool "supervisor needs no key" true !ok;
  check_i64 "write landed" 5L (Regstate.get (Chip.regs target) (Regstate.Gp 1))

let test_key_rotation_revokes () =
  let sim, chip = setup () in
  let doorbell = Memory.alloc (Chip.memory chip) 1 in
  let target = Chip.add_thread chip ~core:1 ~ptid:10 ~mode:Ptid.User () in
  Chip.attach target (fun th ->
      Isa.set_secret th 1L;
      Isa.monitor th doorbell;
      let _ = Isa.mwait th in
      (* Rotate the key: previously shared capability is now void. *)
      Isa.set_secret th 2L);
  Chip.boot target;
  let desc = Memory.alloc (Chip.memory chip) Exception_desc.size_words in
  let faults = install_handler chip desc in
  let user = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs user) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  Chip.attach user (fun th ->
      Sim.delay 100;
      Isa.store th doorbell 1L;
      Sim.delay 1000;
      (* Old key no longer works. *)
      Isa.stop_keyed th ~target_ptid:10 ~key:1L);
  Chip.boot user;
  Sim.run sim;
  check_int "stale key faults" 1 (List.length !faults)

(* --- keyed and TDT addressing --- *)

(* Start, stop, rpull and rpush each name their target one of two ways:
   a vtid through the caller's TDT, or the target's raw ptid plus its
   published secret.  With a warm TDT entry granting all four bits, both
   must charge the issue cost plus one cached lookup, and a failed
   resolution or a refused access must fault with the operand — the vtid
   or the target ptid, never the caller's ptid — as [info]. *)
type via = Vtid of int | Key of int64

let target_ptid = 10
let vtid = 3
let unmapped_vtid = 7
let key = 0xC0FFEEL

let start th = function
  | Vtid vtid -> Isa.start th ~vtid
  | Key key -> Isa.start_keyed th ~target_ptid ~key

let stop th = function
  | Vtid vtid -> Isa.stop th ~vtid
  | Key key -> Isa.stop_keyed th ~target_ptid ~key

let rpull th via reg =
  match via with
  | Vtid vtid -> Isa.rpull th ~vtid reg
  | Key key -> Isa.rpull_keyed th ~target_ptid ~key reg

let rpush th via reg v =
  match via with
  | Vtid vtid -> Isa.rpush th ~vtid reg v
  | Key key -> Isa.rpush_keyed th ~target_ptid ~key reg v

(* Each instruction once, in an order that keeps the accesses legal: the
   start lands and the stop disables the target again before the
   register accesses. *)
let each_insn th via =
  [
    (fun () -> start th via);
    (fun () -> stop th via);
    (fun () -> rpush th via (Regstate.Gp 3) 42L);
    (fun () -> ignore (rpull th via (Regstate.Gp 3)));
  ]

let test_keyed_and_tdt_cost_and_fault_alike () =
  let sim, chip = setup () in
  let target = Chip.add_thread chip ~core:1 ~ptid:target_ptid ~mode:Ptid.User () in
  Chip.attach target (fun th -> Isa.set_secret th key);
  Chip.boot target;
  let desc = Memory.alloc (Chip.memory chip) Exception_desc.size_words in
  let faults = install_handler chip desc in
  let caller = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  let table = Tdt.create () in
  Tdt.set table ~vtid ~ptid:target_ptid (Tdt.perms_of_bits 0b1111);
  Chip.set_tdt caller table;
  Regstate.set (Chip.regs caller) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  let timed insn =
    let t0 = Sim.now () in
    insn ();
    let spent = Sim.now () - t0 in
    Sim.delay 10_000;
    spent
  in
  let costs = ref [] in
  Chip.attach caller (fun th ->
      Sim.delay 100;
      (* The target has published its key and is disabled; warm the TDT
         entry so every timed lookup hits. *)
      ignore (Isa.rpull th ~vtid (Regstate.Gp 0));
      costs :=
        List.map (fun via -> List.map timed (each_insn th via)) [ Vtid vtid; Key key ];
      (* Refused: a wrong key and an unmapped vtid on every instruction,
         then a privileged register both ways. *)
      List.iter (fun via -> List.iter (fun insn -> insn ()) (each_insn th via))
        [ Key (Int64.succ key); Vtid unmapped_vtid ];
      rpush th (Key key) Regstate.Tdt_base 1L;
      rpush th (Vtid vtid) Regstate.Tdt_base 1L);
  Chip.boot caller;
  Sim.run sim;
  let lookup = p.Params.tdt_cached_lookup_cycles in
  let expected =
    [
      p.Params.start_stop_issue_cycles + lookup;
      p.Params.start_stop_issue_cycles + lookup;
      p.Params.rpull_rpush_cycles + lookup;
      p.Params.rpull_rpush_cycles + lookup;
    ]
  in
  Alcotest.(check (list (list int))) "tdt and key: issue + cached lookup"
    [ expected; expected ] !costs;
  let seen (d : Exception_desc.descriptor) =
    (Format.asprintf "ptid %d %a" d.ptid Exception_desc.pp_kind d.kind, d.info)
  in
  let fault kind info =
    (Format.asprintf "ptid 1 %a" Exception_desc.pp_kind kind, Int64.of_int info)
  in
  let denied = fault Exception_desc.Permission_denied target_ptid in
  let unmapped = fault Exception_desc.Invalid_thread_access unmapped_vtid in
  Alcotest.(check (list (pair string int64)))
    "one fault each, the operand as info"
    [
      denied; denied; denied; denied;
      unmapped; unmapped; unmapped; unmapped;
      fault Exception_desc.Privileged_instruction target_ptid;
      fault Exception_desc.Privileged_instruction vtid;
    ]
    (List.rev_map seen !faults)

(* --- per-thread billing (§4) --- *)

let test_billing_tracks_per_thread_consumption () =
  let sim, chip = setup () in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach a (fun th -> Isa.exec th 1000);
  let b = Chip.add_thread chip ~core:0 ~ptid:2 ~mode:Ptid.User () in
  Chip.attach b (fun th -> Isa.exec th 250);
  Chip.boot a;
  Chip.boot b;
  Sim.run sim;
  let core = Chip.exec_core chip 0 in
  let close x y = abs_float (x -. y) < 1.0 in
  let billed th = Smt_core.thread_cycles core ~slot:(Chip.smt_slot th) in
  check_bool "thread 1 billed 1000" true (close (billed a) 1000.0);
  check_bool "thread 2 billed 250" true (close (billed b) 250.0);
  let idle = Chip.add_thread chip ~core:0 ~ptid:99 ~mode:Ptid.User () in
  check_bool "a thread that never ran billed 0" true (billed idle = 0.0);
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 (Smt_core.billed_threads core) in
  check_bool "billing sums to busy" true
    (close total (Smt_core.busy_capacity_cycles core))

let test_billing_includes_overhead_kinds () =
  let sim, chip = setup () in
  let a = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach a (fun th ->
      Isa.exec th 100;
      Isa.exec th ~kind:Smt_core.Poll 50;
      Isa.exec th ~kind:Smt_core.Overhead 25);
  Chip.boot a;
  Sim.run sim;
  let core = Chip.exec_core chip 0 in
  check_bool "all kinds billed to the thread" true
    (abs_float (Smt_core.thread_cycles core ~slot:(Chip.smt_slot a) -. 175.0) < 1.0)

let () =
  Alcotest.run "security"
    [
      ( "secret keys",
        [
          Alcotest.test_case "correct key starts" `Quick test_keyed_start_with_correct_key;
          Alcotest.test_case "wrong key faults" `Quick test_keyed_start_with_wrong_key_faults;
          Alcotest.test_case "no key published" `Quick
            test_keyed_access_without_published_key_faults;
          Alcotest.test_case "keyed rpush/rpull" `Quick test_keyed_rpush_rpull;
          Alcotest.test_case "privileged reg still guarded" `Quick
            test_keyed_rpush_privileged_reg_still_faults;
          Alcotest.test_case "supervisor bypass" `Quick test_supervisor_bypasses_keys;
          Alcotest.test_case "key rotation revokes" `Quick test_key_rotation_revokes;
          Alcotest.test_case "keyed and TDT cost and fault alike" `Quick
            test_keyed_and_tdt_cost_and_fault_alike;
        ] );
      ( "billing",
        [
          Alcotest.test_case "per-thread consumption" `Quick
            test_billing_tracks_per_thread_consumption;
          Alcotest.test_case "all kinds billed" `Quick test_billing_includes_overhead_kinds;
        ] );
    ]
