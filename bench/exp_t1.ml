(* T1 — the paper's Table 1: the example Thread Descriptor Table, rendered
   from our implementation, plus a live permission-matrix check: for each
   entry we attempt start / stop / rpush-gp / rpush-rip through the real
   ISA and report what the hardware allowed. *)

module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Tdt = Switchless.Tdt
module Params = Switchless.Params
module Memory = Switchless.Memory
module Regstate = Switchless.Regstate
module Exception_desc = Switchless.Exception_desc
module Tablefmt = Sl_util.Tablefmt

let table_one () =
  let t = Tdt.create () in
  Tdt.set t ~vtid:0x0 ~ptid:0x01 (Tdt.perms_of_bits 0b1000);
  Tdt.set t ~vtid:0x1 ~ptid:0x00 (Tdt.perms_of_bits 0b0000);
  Tdt.set t ~vtid:0x2 ~ptid:0x10 (Tdt.perms_of_bits 0b1111);
  Tdt.set t ~vtid:0x3 ~ptid:0x11 (Tdt.perms_of_bits 0b1110);
  t

(* Attempt one management operation from a fresh user thread holding
   Table 1; returns "ok" or "fault". *)
let attempt op vtid =
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores:2 in
  (* Targets named by Table 1. *)
  List.iter
    (fun ptid ->
      let th = Chip.add_thread chip ~core:1 ~ptid ~mode:Ptid.User () in
      Chip.attach th (fun _ -> ()))
    [ 0x01; 0x10; 0x11 ];
  let caller = Chip.add_thread chip ~core:0 ~ptid:500 ~mode:Ptid.User () in
  Chip.set_tdt caller (table_one ());
  (* A handler records faults so the chip never halts. *)
  let memory = Chip.memory chip in
  let desc = Memory.alloc memory Exception_desc.size_words in
  Regstate.set (Chip.regs caller) Regstate.Exception_descriptor_ptr (Int64.of_int desc);
  let faulted = ref false in
  let handler = Chip.add_thread chip ~core:1 ~ptid:600 ~mode:Ptid.Supervisor () in
  Chip.attach handler (fun th ->
      Isa.monitor th desc;
      let rec serve () =
        let _ = Isa.mwait th in
        faulted := true;
        Isa.start th ~vtid:500;
        serve ()
      in
      serve ());
  Chip.boot handler;
  Chip.attach caller (fun th ->
      match op with
      | `Start -> Isa.start th ~vtid
      | `Stop -> Isa.stop th ~vtid
      | `Rpush_gp -> Isa.rpush th ~vtid (Regstate.Gp 0) 1L
      | `Rpush_rip -> Isa.rpush th ~vtid Regstate.Rip 1L);
  Chip.boot caller;
  Sim.run ~until:100_000 sim;
  if !faulted then "fault" else "ok"

let run b =
  let t = table_one () in
  let rows =
    List.map
      (fun (vtid, ptid, perms) ->
        [
          Tablefmt.String (Printf.sprintf "0x%x" vtid);
          Tablefmt.String (Printf.sprintf "0x%02x" ptid);
          Tablefmt.String (Format.asprintf "%a" Tdt.pp_perms perms);
          Tablefmt.String
            (if perms = Tdt.perms_none then "(invalid)" else "");
        ])
      (Tdt.entries t)
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"T1: Thread Descriptor Table (paper Table 1)"
       ~header:[ "vtid"; "ptid"; "permissions"; "" ]
       rows);
  let check_rows =
    List.map
      (fun vtid ->
        [
          Tablefmt.String (Printf.sprintf "0x%x" vtid);
          Tablefmt.String (attempt `Start vtid);
          Tablefmt.String (attempt `Stop vtid);
          Tablefmt.String (attempt `Rpush_gp vtid);
          Tablefmt.String (attempt `Rpush_rip vtid);
        ])
      [ 0x0; 0x1; 0x2; 0x3 ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:"T1 check: what the caller may actually do (start-stop-some-most)"
       ~header:[ "vtid"; "start"; "stop"; "rpush gp"; "rpush rip" ]
       check_rows);
  Buffer.add_string b
    "Expected: vtid 0 start-only; vtid 1 nothing (invalid); vtid 2 all four;\n\
     vtid 3 all but rpush-rip (targets are disabled, so rpush of a gp reg\n\
     succeeds where the bit allows).\n"
