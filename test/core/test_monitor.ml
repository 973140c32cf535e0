(* Tests for the generalized monitor registry (no timing — pure
   wake/latch semantics; timed behaviour is covered in test_chip). *)

module Params = Switchless.Params
module Memory = Switchless.Memory
module Monitor = Switchless.Monitor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A memory, its monitor registry, one registered slot on core 0 and
   the (slot, addr) deliveries of the registry's one waiter, oldest
   first. *)
let setup () =
  let mem = Memory.create () in
  let mon = Monitor.create Params.default in
  Monitor.attach mon mem;
  let log = ref [] in
  Monitor.set_waiter mon (fun s a -> log := (s, a) :: !log);
  let delivered () = List.rev !log in
  (mem, mon, Monitor.register mon ~core_id:0, delivered)

(* The tagged-int mwait result as the two outcomes it encodes. *)
let mwait mon s =
  let a = Monitor.mwait mon s in
  if a >= 0 then `Immediate a else `Parked

let armed_count mon s = List.length (Monitor.armed mon s)

let check_delivered = Alcotest.(check (list (pair int int)))

let test_wake_on_write () =
  let mem, mon, s, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  (match mwait mon s with
  | `Parked -> ()
  | `Immediate _ -> Alcotest.fail "nothing written yet");
  check_delivered "nothing delivered while parked" [] (delivered ());
  Memory.write mem addr 7L;
  check_delivered "woken with address" [ (s, addr) ] (delivered ());
  check_bool "unparked" false (Monitor.has_waiter mon s)

let test_no_wake_on_unarmed_address () =
  let mem, mon, s, delivered = setup () in
  let armed = Memory.alloc mem 1 and other = Memory.alloc mem 1 in
  Monitor.arm mon s armed;
  ignore (mwait mon s);
  Memory.write mem other 1L;
  check_delivered "not woken" [] (delivered ());
  check_bool "still parked" true (Monitor.has_waiter mon s)

let test_latched_trigger_no_lost_wakeup () =
  let mem, mon, s, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  (* Write races ahead of mwait. *)
  Memory.write mem addr 1L;
  (match mwait mon s with
  | `Immediate a -> check_int "latched address" addr a
  | `Parked -> Alcotest.fail "wakeup was lost");
  (* The latch is consumed: next mwait parks. *)
  (match mwait mon s with
  | `Parked -> ()
  | `Immediate _ -> Alcotest.fail "latch must be one-shot");
  check_delivered "a latch is not a delivery" [] (delivered ())

let test_multiple_addresses_any_wakes () =
  let mem, mon, s, delivered = setup () in
  let a = Memory.alloc mem 1 and b = Memory.alloc mem 1 in
  Monitor.arm mon s a;
  Monitor.arm mon s b;
  ignore (mwait mon s);
  Memory.write mem b 1L;
  check_delivered "woken by second address" [ (s, b) ] (delivered ())

(* A write delivers to its watchers most-recently-armed first. *)
let test_multiple_waiters_same_address () =
  let mem, mon, s1, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  let s2 = Monitor.register mon ~core_id:0 and s3 = Monitor.register mon ~core_id:0 in
  List.iter
    (fun s ->
      Monitor.arm mon s addr;
      ignore (mwait mon s))
    [ s1; s2; s3 ];
  Memory.write mem addr 1L;
  check_delivered "all three woken, newest arm first" [ (s3, addr); (s2, addr); (s1, addr) ]
    (delivered ())

let test_wake_is_one_shot () =
  let mem, mon, s, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  ignore (mwait mon s);
  Memory.write mem addr 1L;
  Memory.write mem addr 2L;
  check_delivered "only one delivery" [ (s, addr) ] (delivered ())

let test_second_write_latches_for_next_wait () =
  let mem, mon, s, _ = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  ignore (mwait mon s);
  Memory.write mem addr 1L;
  (* Thread woke; a second write while it is processing latches. *)
  Memory.write mem addr 2L;
  match mwait mon s with
  | `Immediate a -> check_int "latched second write" addr a
  | `Parked -> Alcotest.fail "second write lost"

(* E9's filler shape: a slot that arms addresses but never parks.  A
   write to an address only it watches latches for it and reaches no
   waiter, while a parked slot beside it is still woken. *)
let test_never_parked_slot_only_latches () =
  let mem, mon, s, delivered = setup () in
  let filler = Monitor.register mon ~core_id:0 in
  let doorbell = Memory.alloc mem 1 and filled = Memory.alloc mem 1 in
  Monitor.arm mon s doorbell;
  Monitor.arm mon filler filled;
  ignore (mwait mon s);
  Memory.write mem filled 1L;
  check_delivered "the filler's write reaches no waiter" [] (delivered ());
  check_bool "the filler is not parked" false (Monitor.has_waiter mon filler);
  Memory.write mem doorbell 1L;
  check_delivered "the parked slot still wakes" [ (s, doorbell) ] (delivered ());
  match mwait mon filler with
  | `Immediate a -> check_int "the filler's write latched" filled a
  | `Parked -> Alcotest.fail "the filler's write was lost"

let test_disarm_all () =
  let mem, mon, s, delivered = setup () in
  let addrs = List.init 5 (fun _ -> Memory.alloc mem 1) in
  List.iter (Monitor.arm mon s) addrs;
  check_int "armed" 5 (armed_count mon s);
  Monitor.disarm_all mon s;
  check_int "none armed" 0 (armed_count mon s);
  check_int "core count" 0 (Monitor.core_armed_count mon 0);
  ignore (mwait mon s);
  List.iter (fun a -> Memory.write mem a 1L) addrs;
  check_delivered "no wake after disarm_all" [] (delivered ())

let test_cancel_wait () =
  let mem, mon, s, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  ignore (mwait mon s);
  Monitor.cancel_wait mon s;
  Memory.write mem addr 1L;
  check_delivered "cancelled waiter not woken" [] (delivered ());
  (* But the write latched (still armed), so the next mwait is immediate:
     the stop/start race loses no events. *)
  match mwait mon s with
  | `Immediate _ -> ()
  | `Parked -> Alcotest.fail "event during cancel window was lost"

(* [take_waiter] unparks without a delivery, and says whether there was
   a parked slot to take. *)
let test_take_waiter () =
  let mem, mon, s, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  Monitor.arm mon s addr;
  check_bool "nothing to take before mwait" false (Monitor.take_waiter mon s);
  ignore (mwait mon s);
  check_bool "taken" true (Monitor.take_waiter mon s);
  check_bool "taken once" false (Monitor.take_waiter mon s);
  check_delivered "taking is not a delivery" [] (delivered ());
  Memory.write mem addr 1L;
  check_delivered "the write after it latches" [] (delivered ());
  match mwait mon s with
  | `Immediate a -> check_int "latched" addr a
  | `Parked -> Alcotest.fail "write after take_waiter lost"

(* A relatch reaches a re-parked slot through the waiter at once. *)
let test_relatch_delivers_to_parked () =
  let mem, mon, s, delivered = setup () in
  let addr = Memory.alloc mem 1 in
  ignore (mwait mon s);
  Monitor.relatch mon s addr;
  check_delivered "relatch delivered" [ (s, addr) ] (delivered ());
  Monitor.relatch mon s addr;
  match mwait mon s with
  | `Immediate a -> check_int "the second relatch latched" addr a
  | `Parked -> Alcotest.fail "relatch lost"

let test_arm_idempotent () =
  let mem, mon, s, _ = setup () in
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
  let _, mon, s, _ = setup () in
  ignore (mwait mon s);
  Alcotest.check_raises "double park"
    (Invalid_argument "Monitor.mwait: thread already parked") (fun () -> ignore (mwait mon s))

(* Property: for any interleaving of write/mwait on one armed address, a
   write that happens while nobody waits is never lost — the next mwait
   returns immediately.  Writes while unparked *coalesce* (the latch is a
   level-triggered doorbell), so the model tracks a boolean, not a count. *)
let prop_no_lost_wakeups =
  QCheck.Test.make ~name:"no lost wakeups across arm/write orderings" ~count:300
    QCheck.(list_of_size Gen.(1 -- 12) (int_bound 2))
    (fun ops ->
      let mem, mon, s, _ = setup () in
      let addr = Memory.alloc mem 1 in
      Monitor.arm mon s addr;
      let latched = ref false in
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
            match mwait mon s with
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
          Alcotest.test_case "never-parked slot only latches" `Quick
            test_never_parked_slot_only_latches;
        ] );
      ( "management",
        [
          Alcotest.test_case "disarm_all" `Quick test_disarm_all;
          Alcotest.test_case "cancel_wait" `Quick test_cancel_wait;
          Alcotest.test_case "take_waiter" `Quick test_take_waiter;
          Alcotest.test_case "relatch to a parked slot" `Quick test_relatch_delivers_to_parked;
          Alcotest.test_case "arm idempotent" `Quick test_arm_idempotent;
          Alcotest.test_case "overflow scan cost" `Quick test_overflow_scan_cost;
          Alcotest.test_case "double park rejected" `Quick test_double_park_rejected;
        ] );
      ("properties", qsuite);
    ]
