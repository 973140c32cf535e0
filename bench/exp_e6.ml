(* E6 — "Untrusted Hypervisors" / "No VM-Exits": cycles per VM-exit.

   A guest takes [exits] privileged-instruction exits, each requiring 300
   cycles of hypervisor service:

   - in-kernel (KVM-style): architectural VM-exit round trip, hypervisor
     runs privileged in the guest's thread;
   - isolated hw thread: exception descriptor + user-mode hypervisor
     wake + restart (no privilege anywhere);
   - SplitX remote core: exits shipped to a hypervisor polling on
     another core (fast, but burns a core).

   Expected shape: the isolated design matches or beats the in-kernel
   cost while holding zero privilege; SplitX approaches raw work latency
   but pays a polling core for it. *)

module Params = Switchless.Params
module Chip = Switchless.Chip
module Ptid = Switchless.Ptid
module Smt_core = Switchless.Smt_core
module Hypervisor = Sl_os.Hypervisor
module Round_trip = Sl_os.Round_trip
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let exits = 100
let handle_work = 300

let measure_inkernel () =
  Round_trip.software p ~calls:exits (fun _ _ guest ->
      Hypervisor.inkernel_exit guest p ~handle_work)

(* Cycles per exit, and the poll cycles the hypervisor's core burned. *)
let measure_hw setup =
  let mean, chip = Round_trip.hardware p ~calls:exits setup in
  (mean, Smt_core.work_done (Chip.exec_core chip 1) Smt_core.Poll)

let user_guest chip = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User ()

let measure_isolated () =
  measure_hw (fun chip ->
      let hyp = Hypervisor.Isolated.create chip ~core:1 ~hyp_ptid:200 in
      let guest = user_guest chip in
      Hypervisor.Isolated.install_guest hyp ~guest;
      (guest, fun th -> Hypervisor.Isolated.vmexit th ~handle_work))

let measure_remote () =
  measure_hw (fun chip ->
      let remote = Hypervisor.Remote.create chip ~core:1 ~hyp_ptid:200 () in
      (user_guest chip, fun th -> Hypervisor.Remote.vmexit remote ~guest:th ~handle_work))

let run b =
  let ik = measure_inkernel () in
  let iso, iso_poll = measure_isolated () in
  let rem, rem_poll = measure_remote () in
  let row name cost poll privileged =
    [
      Tablefmt.String name;
      Tablefmt.Float cost;
      Tablefmt.Float (cost -. float_of_int handle_work);
      Tablefmt.Float (poll /. 1000.0);
      Tablefmt.String privileged;
    ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E6: VM-exit cost (300-cycle handler)"
       ~header:[ "design"; "cycles/exit"; "mechanism tax"; "poll kcycles"; "privilege" ]
       [
         row "in-kernel (KVM)" ik 0.0 "ring 0";
         row "isolated hw thread" iso iso_poll "none (user)";
         row "SplitX remote core" rem rem_poll "none, +1 core";
       ]);
  Printf.bprintf b "isolated vs in-kernel: %.1fx cheaper, with zero privilege\n\n" (ik /. iso)
