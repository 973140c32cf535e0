(* E10 — §3.2 "Consecutive Exceptions": handler chains.

   A fault in thread T0 is handled by T1; a fault T1 takes while handling
   is handled by T2; and so on.  We measure the faulting thread's
   fault-to-resume latency as the chain deepens (every level of nesting
   adds one descriptor write + handler wake + restart), and confirm that
   a chain with no terminal handler halts the chip like a triple fault.

   Expected shape: latency grows roughly linearly in the nesting depth;
   depth 1 costs ≈ descriptor(16) + wake(26) + handler work + start(24). *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Regstate = Switchless.Regstate
module Exception_desc = Switchless.Exception_desc
module Tablefmt = Sl_util.Tablefmt

let p = Params.default
let handler_work = 100

(* Build a chain of [depth] handlers; handler i faults once itself on its
   first activation (except the last), so a depth-k chain exercises k
   nested exceptions.  Returns the victim's fault-to-resume latency. *)
let chain_latency depth =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:2 in
  let memory = Chip.memory chip in
  let descs =
    Array.init depth (fun _ -> Memory.alloc memory Exception_desc.size_words)
  in
  (* Victim thread faults through descs.(0). *)
  let victim = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Regstate.set (Chip.regs victim) Regstate.Exception_descriptor_ptr
    (Int64.of_int descs.(0));
  let latency = ref 0 in
  Chip.attach victim (fun th ->
      let t0 = Sim.now () in
      Isa.fault th Exception_desc.Divide_error ~info:0L;
      latency := Sim.now () - t0);
  (* Handler i (ptid 10+i) watches descs.(i); all but the last fault once
     through descs.(i+1) while handling. *)
  for i = 0 to depth - 1 do
    let h = Chip.add_thread chip ~core:(i mod 2) ~ptid:(10 + i) ~mode:Ptid.Supervisor () in
    if i + 1 < depth then
      Regstate.set (Chip.regs h) Regstate.Exception_descriptor_ptr
        (Int64.of_int descs.(i + 1));
    let faulted_once = ref false in
    Chip.attach h (fun th ->
        Isa.monitor th descs.(i);
        let rec serve () =
          let _ = Isa.mwait th in
          let d = Exception_desc.read memory ~base:descs.(i) in
          Isa.exec th handler_work;
          if (not !faulted_once) && i + 1 < depth then begin
            faulted_once := true;
            (* The handler itself page-faults mid-service. *)
            Isa.fault th Exception_desc.Page_fault ~info:0L
          end;
          Isa.start th ~vtid:d.Exception_desc.ptid;
          serve ()
        in
        serve ());
    Chip.boot h
  done;
  Chip.boot victim;
  Sim.run sim;
  !latency

let triple_fault_check () =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let victim = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach victim (fun th -> Isa.fault th Exception_desc.Divide_error ~info:0L);
  Chip.boot victim;
  match Sim.run sim with
  | () -> "BUG: not halted"
  | exception Chip.Halted _ -> "halted (as specified)"

let run b =
  let rows =
    List.map
      (fun depth ->
        [ Tablefmt.Int depth; Tablefmt.Int (chain_latency depth) ])
      [ 1; 2; 3; 4 ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:"E10: fault-to-resume latency vs handler-chain depth (100-cycle handlers)"
       ~header:[ "nesting depth"; "victim latency (cyc)" ]
       rows);
  Printf.bprintf b "chain with no terminal handler: %s\n\n" (triple_fault_check ())
