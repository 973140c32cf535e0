(* E5 — "Faster Microkernels and Container Proxies": service round trips.

   A client invokes an isolated service that performs [work] cycles, via:
   - a monolithic kernel (trap around the work: no isolation);
   - classic microkernel IPC (scheduler-mediated software threads);
   - direct hardware-thread IPC (the paper's XPC-equivalent).

   Expected shape: hw IPC ≈ work + ~70 cycles — within a small constant
   of the monolithic kernel while keeping microkernel isolation, and
   several times cheaper than scheduler-based IPC.  The container-proxy
   row chains TWO hops (app → proxy → service), where the scheduler-based
   design pays the tax twice. *)

module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Swsched = Sl_baseline.Swsched
module Syscall = Sl_os.Syscall
module Microkernel = Sl_os.Microkernel
module Hw_channel = Sl_os.Hw_channel
module Round_trip = Sl_os.Round_trip
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let calls = 100

(* A monolithic kernel runs the service inside one trap round trip. *)
let measure_monolithic work =
  Round_trip.software p ~calls (fun _ _ client ->
      Syscall.Trap.call client p ~kernel_work:work)

let measure_sw_ipc work =
  Round_trip.software p ~calls (fun sim sched ->
      let service = Microkernel.Sw_service.create sim sched p in
      fun client -> Microkernel.Sw_service.call service ~client ~service_work:work)

(* An isolated, unprivileged service on its own hardware thread. *)
let user_service chip = Hw_channel.create chip ~core:1 ~server_ptid:100 ~mode:Ptid.User ()

(* A user-mode client that starts [server] through vtid 7 of its TDT. *)
let user_client chip server ~work =
  let client = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Hw_channel.grant server ~client ~vtid:7;
  (client, fun th -> Hw_channel.call server ~client:th ~via:7 ~work ())

let measure_hw_ipc work =
  fst (Round_trip.hardware p ~calls (fun chip -> user_client chip (user_service chip) ~work))

(* Container proxy: app -> proxy (work 200) -> service (work).  The proxy
   is itself an isolated hardware thread that calls the service. *)
let measure_proxy_chain_hw work =
  fst
    (Round_trip.hardware p ~calls (fun chip ->
         let service = user_service chip in
         let proxy =
           Hw_channel.create chip ~core:1 ~server_ptid:101 ~mode:Ptid.User
             ~on_request:(fun th w ->
               Isa.exec th 200;
               (* The proxy forwards to the backing service. *)
               Hw_channel.call service ~client:th ~via:9 ~work:(Int64.to_int w) ())
             ()
         in
         (* The proxy thread needs rights on the service. *)
         Hw_channel.grant service ~client:(Chip.find_thread chip ~ptid:101) ~vtid:9;
         user_client chip proxy ~work))

let measure_proxy_chain_sw work =
  Round_trip.software p ~calls (fun sim sched ->
      let service = Microkernel.Sw_service.create sim sched p in
      (* The proxy is a second software service, whose work on a
         request is its own 200 cycles and a call to the service. *)
      let proxy =
        Microkernel.Sw_service.create sim sched p ~on_request:(fun th w ->
            Swsched.exec th 200;
            Microkernel.Sw_service.call service ~client:th ~service_work:w)
      in
      fun client -> Microkernel.Sw_service.call proxy ~client ~service_work:work)

let run b =
  let works = [ 100; 500; 2000 ] in
  let rows =
    List.map
      (fun work ->
        [
          Tablefmt.Int work;
          Tablefmt.Float (measure_monolithic work);
          Tablefmt.Float (measure_sw_ipc work);
          Tablefmt.Float (measure_hw_ipc work);
        ])
      works
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E5a: service round trip (cycles) by IPC design"
       ~header:[ "service work"; "monolithic"; "microkernel sw IPC"; "hw-thread IPC" ]
       rows);
  let work = 500 in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:"E5b: container proxy chain (app -> proxy(200) -> service(500))"
       ~header:[ "design"; "cycles/request" ]
       [
         [ Tablefmt.String "software threads + scheduler"; Tablefmt.Float (measure_proxy_chain_sw work) ];
         [ Tablefmt.String "hardware-thread hand-offs"; Tablefmt.Float (measure_proxy_chain_hw work) ];
       ])
