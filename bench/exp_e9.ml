(* E9 — Generalized monitor scalability (§3.1/§4, HyperPlane-style).

   One core arms K addresses across its threads.  The fast associative
   monitor table holds [monitor_capacity_per_core] entries; beyond that
   every write pays a per-extra-entry scan through the overflow
   structure, and wake latency grows.

   Expected shape: wake latency flat at 26 cycles up to the table
   capacity (1024 armed addresses by default), then climbing linearly —
   quantifying the paper's "if the number of hardware threads is
   sufficiently high, we can avoid [per-thread multi-address polling]"
   within the limits of practical hardware. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Monitor = Switchless.Monitor
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

(* Wake latency of one thread when the core has [armed] addresses armed
   in total (spread over filler threads that never wake). *)
let wake_latency_with_armed armed =
  let sim = Sim.create () in
  let chip = Chip.create sim p ~cores:1 in
  let memory = Chip.memory chip in
  let mon = Chip.monitor_table chip in
  (* Filler arms, attributed to a dormant filler slot on core 0. *)
  let filler = Monitor.register mon ~core_id:0 in
  for _ = 2 to armed do
    Monitor.arm mon filler (Memory.alloc memory 1)
  done;
  let doorbell = Memory.alloc memory 1 in
  let woke = ref 0 in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  Chip.attach th (fun t ->
      Isa.monitor t doorbell;
      let _ = Isa.mwait t in
      woke := Sim.now ());
  Chip.boot th;
  Sim.spawn sim (fun () ->
      Sim.delay 1000;
      Memory.write memory doorbell 1L);
  Sim.run sim;
  !woke - 1000

let run b =
  let counts = [ 16; 128; 512; 1024; 1536; 2048; 4096 ] in
  let rows =
    List.map
      (fun k ->
        let latency = wake_latency_with_armed k in
        let over = max 0 (k - p.Params.monitor_capacity_per_core) in
        ( float_of_int k,
          [
            float_of_int latency;
            float_of_int (over * p.Params.monitor_overflow_scan_cycles);
          ] ))
      counts
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         "E9: mwait wake latency vs armed addresses per core (table capacity 1024)"
       ~x_label:"armed" ~columns:[ "wake latency (cyc)"; "overflow scan (cyc)" ]
       rows);
  Buffer.add_string b
    "Expected: flat at ~26 cycles through the fast-table capacity, then a\n\
     linear overflow penalty — hundreds of armed monitors per core are free.\n\n"
