(* Tests for the round-trip builder behind E3–E6 and `switchless-sim
   syscall`: every design is timed after one untimed warm-up call, so a
   mean is the steady per-call cost whatever the number of timed calls. *)

module Params = Switchless.Params
module Chip = Switchless.Chip
module Ptid = Switchless.Ptid
module Syscall = Sl_os.Syscall
module Hw_channel = Sl_os.Hw_channel
module Round_trip = Sl_os.Round_trip

let p = Params.default

let trap ~calls work =
  Round_trip.software p ~calls (fun _ _ app -> Syscall.Trap.call app p ~kernel_work:work)

let hw_world ~calls work =
  Round_trip.hardware p ~calls (fun chip ->
      let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 () in
      let app = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
      (app, fun th -> Hw_channel.call sys ~client:th ~work ()))

let hw ~calls work = fst (hw_world ~calls work)

let check_mean name expected got =
  Alcotest.(check (float 0.0)) name (float_of_int expected) got

(* Trap: entry 75 + exit 75 + pollution 300 around the work. *)
let test_trap_mean () =
  List.iter
    (fun calls ->
      List.iter
        (fun work ->
          check_mean (Printf.sprintf "trap calls=%d work=%d" calls work) (450 + work)
            (trap ~calls work))
        [ 0; 500; 2000 ])
    [ 1; 200 ]

(* Hardware channel: the first call's placement costs land in the
   warm-up, so even a single timed call shows the steady 60 cycles. *)
let test_hw_mean () =
  List.iter
    (fun calls ->
      List.iter
        (fun work ->
          check_mean (Printf.sprintf "hw calls=%d work=%d" calls work) (60 + work)
            (hw ~calls work))
        [ 0; 500; 2000 ])
    [ 1; 200 ]

let test_hardware_returns_its_chip () =
  let _, chip = hw_world ~calls:3 10 in
  Alcotest.(check int) "two cores" 2 (Chip.core_count chip);
  (* Warm-up plus three timed calls, each one start of the server. *)
  Alcotest.(check int) "server started per call" 4
    (Chip.start_count (Chip.find_thread chip ~ptid:100))

(* A mean over no timed calls is no number: 0 used to print nan cycles
   per call and -1 a negative mean.  Both builders reject them up front. *)
let test_rejects_no_calls () =
  List.iter
    (fun calls ->
      Alcotest.check_raises
        (Printf.sprintf "software calls=%d" calls)
        (Invalid_argument "Round_trip.software: calls must be at least 1")
        (fun () -> ignore (trap ~calls 0));
      Alcotest.check_raises
        (Printf.sprintf "hardware calls=%d" calls)
        (Invalid_argument "Round_trip.hardware: calls must be at least 1")
        (fun () -> ignore (hw ~calls 0)))
    [ 0; -1 ]

let () =
  Alcotest.run "round_trip"
    [
      ( "builder",
        [
          Alcotest.test_case "trap mean is 450 + work" `Quick test_trap_mean;
          Alcotest.test_case "hw mean is 60 + work" `Quick test_hw_mean;
          Alcotest.test_case "hardware returns its chip" `Quick test_hardware_returns_its_chip;
          Alcotest.test_case "fewer than one call rejected" `Quick test_rejects_no_calls;
        ] );
    ]
