(* E4 — "Access to All Registers in the Kernel": the FP/vector state tax.

   Conventional kernels avoid FP/SIMD because every trap would have to
   save/restore the 784-byte context instead of 272 bytes.  With
   software-managed hardware threads the kernel code runs in its own
   (vector-capable) hardware thread, so the application never pays for
   the kernel's registers.

   Rows:
   - software context-switch cost, GP-only vs vector contexts (model);
   - trap syscall where the kernel uses vector code (adds the xsave
     round trip of the extra 512 bytes);
   - hardware-thread syscall whose server thread is vector-capable
     (measured end to end: the extra state affects only placement). *)

module Params = Switchless.Params
module Chip = Switchless.Chip
module Ptid = Switchless.Ptid
module Ctx_cost = Sl_baseline.Ctx_cost
module Swsched = Sl_baseline.Swsched
module Syscall = Sl_os.Syscall
module Hw_channel = Sl_os.Hw_channel
module Round_trip = Sl_os.Round_trip
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let work = 500
let calls = 100

(* Extra cycles a trap pays when the kernel touches vector registers:
   save + restore of the 512 vector bytes at the context-copy bandwidth. *)
let kernel_fp_trap_extra =
  2 * (p.Params.regstate_bytes_full - p.Params.regstate_bytes_gp)
  / p.Params.ctx_bytes_per_cycle

let measure_trap_with_fp () =
  Round_trip.software p ~calls (fun _ _ app ->
      Swsched.exec app ~kind:Switchless.Smt_core.Overhead kernel_fp_trap_extra;
      Syscall.Trap.call app p ~kernel_work:work)

let measure_hw ~vector =
  fst
    (Round_trip.hardware p ~calls (fun chip ->
         let sys = Hw_channel.create chip ~core:1 ~server_ptid:100 ~vector () in
         let app = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
         (app, fun th -> Hw_channel.call sys ~client:th ~work ())))

let run b =
  let sw_gp = Ctx_cost.software_switch_cycles p ~out_vector:false ~in_vector:false () in
  let sw_vec = Ctx_cost.software_switch_cycles p ~out_vector:true ~in_vector:true () in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E4a: software context-switch cost by register class"
       ~header:[ "contexts"; "state bytes"; "switch cycles" ]
       [
         [ Tablefmt.String "GP only (272 B)"; Tablefmt.Int (2 * 272); Tablefmt.Int sw_gp ];
         [ Tablefmt.String "with vector (784 B)"; Tablefmt.Int (2 * 784); Tablefmt.Int sw_vec ];
       ]);
  let trap_fp = measure_trap_with_fp () in
  let hw_gp = measure_hw ~vector:false in
  let hw_vec = measure_hw ~vector:true in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:"E4b: 500-cycle syscall when the KERNEL uses vector registers"
       ~header:[ "design"; "cycles/call"; "client-visible FP tax" ]
       [
         [
           Tablefmt.String "trap + kernel xsave/xrstor";
           Tablefmt.Float trap_fp;
           Tablefmt.Int kernel_fp_trap_extra;
         ];
         [
           Tablefmt.String "hw thread, GP server";
           Tablefmt.Float hw_gp;
           Tablefmt.Int 0;
         ];
         [
           Tablefmt.String "hw thread, vector server";
           Tablefmt.Float hw_vec;
           Tablefmt.Float (hw_vec -. hw_gp);
         ];
       ]);
  Buffer.add_string b
    "Expected: the vector-capable kernel hardware thread costs the client\n\
     nothing — its 784-byte context only occupies more register-file space —\n\
     while the trap design pays the xsave tax on every call.\n\n"
