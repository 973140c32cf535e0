(* Tests for the generalized monitor registry (no timing — pure
   wake/latch semantics; timed behaviour is covered in test_chip). *)

module Params = Switchless.Params
module Memory = Switchless.Memory
module Monitor = Switchless.Monitor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A memory, its monitor registry and one registered slot on core 0. *)
let setup () =
  let mem = Memory.create () in
  let mon = Monitor.create Params.default in
  Monitor.attach mon mem;
  (mem, mon, Monitor.register mon ~core_id:0)

(* The tagged-int mwait result as the two outcomes it encodes. *)
let mwait mon s ~wake =
  let a = Monitor.mwait mon s ~wake in
  if a >= 0 then `Immediate a else `Parked

let armed_count mon s = List.length (Monitor.armed mon s)

let test_wake_on_write () =
  let mem, mon, s = setup () in
  let woken = ref None in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  (match mwait mon s ~wake:(fun a -> woken := Some a) with
  | `Parked -> ()
  | `Immediate _ -> Alcotest.fail "nothing written yet");
  Memory.write mem addr 7L;
  Alcotest.(check (option int)) "woken with address" (Some addr) !woken

let test_no_wake_on_unarmed_address () =
  let mem, mon, s = setup () in
  let woken = ref false in
  let armed = Memory.alloc mem 1 and other = Memory.alloc mem 1 in
  Monitor.arm mon s armed;
  ignore (mwait mon s ~wake:(fun _ -> woken := true));
  Memory.write mem other 1L;
  check_bool "not woken" false !woken

let test_latched_trigger_no_lost_wakeup () =
  let mem, mon, s = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  (* Write races ahead of mwait. *)
  Memory.write mem addr 1L;
  (match mwait mon s ~wake:(fun _ -> Alcotest.fail "must not park") with
  | `Immediate a -> check_int "latched address" addr a
  | `Parked -> Alcotest.fail "wakeup was lost");
  (* The latch is consumed: next mwait parks. *)
  match mwait mon s ~wake:(fun _ -> ()) with
  | `Parked -> ()
  | `Immediate _ -> Alcotest.fail "latch must be one-shot"

let test_multiple_addresses_any_wakes () =
  let mem, mon, s = setup () in
  let a = Memory.alloc mem 1 and b = Memory.alloc mem 1 in
  Monitor.arm mon s a;
  Monitor.arm mon s b;
  let woken = ref None in
  ignore (mwait mon s ~wake:(fun x -> woken := Some x));
  Memory.write mem b 1L;
  Alcotest.(check (option int)) "woken by second address" (Some b) !woken

let test_multiple_waiters_same_address () =
  let mem, mon, s = setup () in
  let addr = Memory.alloc mem 1 in
  let woken = ref [] in
  for ptid = 1 to 3 do
    let s = if ptid = 1 then s else Monitor.register mon ~core_id:0 in
    Monitor.arm mon s addr;
    ignore (mwait mon s ~wake:(fun _ -> woken := ptid :: !woken))
  done;
  Memory.write mem addr 1L;
  Alcotest.(check (list int)) "all three woken" [ 3; 2; 1 ] (List.sort compare !woken |> List.rev)

let test_wake_is_one_shot () =
  let mem, mon, s = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  let count = ref 0 in
  ignore (mwait mon s ~wake:(fun _ -> incr count));
  Memory.write mem addr 1L;
  Memory.write mem addr 2L;
  check_int "only one wake call" 1 !count

let test_second_write_latches_for_next_wait () =
  let mem, mon, s = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  ignore (mwait mon s ~wake:(fun _ -> ()));
  Memory.write mem addr 1L;
  (* Thread woke; a second write while it is processing latches. *)
  Memory.write mem addr 2L;
  match mwait mon s ~wake:(fun _ -> ()) with
  | `Immediate a -> check_int "latched second write" addr a
  | `Parked -> Alcotest.fail "second write lost"

let test_disarm_all () =
  let mem, mon, s = setup () in
  let addrs = List.init 5 (fun _ -> Memory.alloc mem 1) in
  List.iter (Monitor.arm mon s) addrs;
  check_int "armed" 5 (armed_count mon s);
  Monitor.disarm_all mon s;
  check_int "none armed" 0 (armed_count mon s);
  check_int "core count" 0 (Monitor.core_armed_count mon 0);
  let woken = ref false in
  ignore (mwait mon s ~wake:(fun _ -> woken := true));
  List.iter (fun a -> Memory.write mem a 1L) addrs;
  check_bool "no wake after disarm_all" false !woken

let test_cancel_wait () =
  let mem, mon, s = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  let woken = ref false in
  ignore (mwait mon s ~wake:(fun _ -> woken := true));
  Monitor.cancel_wait mon s;
  Memory.write mem addr 1L;
  check_bool "cancelled waiter not woken" false !woken;
  (* But the write latched (still armed), so the next mwait is immediate:
     the stop/start race loses no events. *)
  match mwait mon s ~wake:(fun _ -> ()) with
  | `Immediate _ -> ()
  | `Parked -> Alcotest.fail "event during cancel window was lost"

let test_arm_idempotent () =
  let mem, mon, s = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  Monitor.arm mon s addr;
  check_int "armed once" 1 (armed_count mon s);
  check_int "core accounting" 1 (Monitor.core_armed_count mon 0);
  ignore mem

let test_overflow_scan_cost () =
  let params = { Params.default with Params.monitor_capacity_per_core = 4 } in
  let mem = Memory.create () in
  let mon = Monitor.create params in
  Monitor.attach mon mem;
  let s = Monitor.register mon ~core_id:0 in
  for i = 0 to 5 do
    Monitor.arm mon s (Memory.alloc mem 1);
    ignore i
  done;
  (* 6 armed, capacity 4: 2 over, at 2 cycles each. *)
  check_int "overflow cost" 4 (Monitor.write_scan_cost mon 0);
  check_int "other core free" 0 (Monitor.write_scan_cost mon 1)

let test_double_park_rejected () =
  let _, mon, s = setup () in
  ignore (mwait mon s ~wake:(fun _ -> ()));
  Alcotest.check_raises "double park"
    (Invalid_argument "Monitor.mwait: thread already parked") (fun () ->
      ignore (mwait mon s ~wake:(fun _ -> ())))

(* Property: for any interleaving of write/mwait on one armed address, a
   write that happens while nobody waits is never lost — the next mwait
   returns immediately.  Writes while unparked *coalesce* (the latch is a
   level-triggered doorbell), so the model tracks a boolean, not a count. *)
let prop_no_lost_wakeups =
  QCheck.Test.make ~name:"no lost wakeups across arm/write orderings" ~count:300
    QCheck.(list_of_size Gen.(1 -- 12) (int_bound 2))
    (fun ops ->
      let mem, mon, s = setup () in
      let addr = Memory.alloc mem 1 in
      Monitor.arm mon s addr;
      let latched = ref false in
      let woken = ref 0 in
      let parked = ref false in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            (* write: wakes a parked thread, else latches (coalescing). *)
            Memory.write mem addr 1L;
            if !parked then parked := false else latched := true
          | 1 when not !parked -> (
            match mwait mon s ~wake:(fun _ -> incr woken) with
            | `Immediate _ ->
              if not !latched then ok := false;
              latched := false
            | `Parked ->
              if !latched then ok := false;
              parked := true)
          | _ -> ())
        ops;
      !ok)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_no_lost_wakeups ] in
  Alcotest.run "monitor"
    [
      ( "wake",
        [
          Alcotest.test_case "wake on write" `Quick test_wake_on_write;
          Alcotest.test_case "unarmed address ignored" `Quick test_no_wake_on_unarmed_address;
          Alcotest.test_case "latched trigger" `Quick test_latched_trigger_no_lost_wakeup;
          Alcotest.test_case "any of multiple addresses" `Quick test_multiple_addresses_any_wakes;
          Alcotest.test_case "multiple waiters" `Quick test_multiple_waiters_same_address;
          Alcotest.test_case "wake one-shot" `Quick test_wake_is_one_shot;
          Alcotest.test_case "second write latches" `Quick test_second_write_latches_for_next_wait;
        ] );
      ( "management",
        [
          Alcotest.test_case "disarm_all" `Quick test_disarm_all;
          Alcotest.test_case "cancel_wait" `Quick test_cancel_wait;
          Alcotest.test_case "arm idempotent" `Quick test_arm_idempotent;
          Alcotest.test_case "overflow scan cost" `Quick test_overflow_scan_cost;
          Alcotest.test_case "double park rejected" `Quick test_double_park_rejected;
        ] );
      ("properties", qsuite);
    ]
