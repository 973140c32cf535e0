(* E8 — §4 "The Space of Hardware Designs": thread-state storage.

   (a) Capacity ladder: how many contexts each storage tier holds, for
       GP-only (272 B) and vector (784 B) contexts — reproducing the
       paper's arithmetic (64 KiB register file ≈ 83–240 contexts;
       6.4 MB for 100 cores; L2/L3 slices for tens/hundreds more).

   (b) Wake-latency ladder: measured mwait-wake latency when a thread's
       state resides in each tier (RF / L2 / L3 / DRAM).

   (c) Wake latency vs resident thread count: N threads per core woken
       round-robin — as N outgrows the register file the average wake
       cost climbs the ladder; pinning (criticality placement) and
       prefetching flatten it for the threads that matter.

   Expected shape: latency ladder ≈ 26 / 56 / 86 / 326 cycles; average
   wake cost stays ≈ RF until N ≈ 240 (GP contexts), then rises; a
   pinned thread stays at 26 cycles regardless of N; prefetched wakes
   return to RF cost. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module State_store = Switchless.State_store
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

let capacity_table b =
  let tiers =
    [
      ("register file", p.Params.rf_capacity_bytes);
      ("L2 slice", p.Params.l2_state_capacity_bytes);
      ("L3 slice", p.Params.l3_state_capacity_bytes);
    ]
  in
  let rows =
    List.map
      (fun (name, bytes) ->
        [
          Tablefmt.String name;
          Tablefmt.Int (bytes / 1024);
          Tablefmt.Int (bytes / p.Params.regstate_bytes_gp);
          Tablefmt.Int (bytes / p.Params.regstate_bytes_full);
        ])
      tiers
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E8a: context capacity per storage tier"
       ~header:[ "tier"; "KiB"; "272 B contexts"; "784 B contexts" ]
       rows);
  Printf.bprintf b
    "paper checks: 64 KiB RF holds %d full-vector contexts (paper: 83) and %d GP\n\
     contexts (paper: up to 224-240); 100 cores x 64 KiB = %.1f MB (paper: 6.4 MB)\n\n"
    (p.Params.rf_capacity_bytes / p.Params.regstate_bytes_full)
    (p.Params.rf_capacity_bytes / p.Params.regstate_bytes_gp)
    (100.0 *. float_of_int p.Params.rf_capacity_bytes /. 1.0e6)

(* Measured wake latency with the thread's state planted in a tier.  Uses
   shrunken capacities (8 / 16 / 32 contexts) so a handful of filler
   threads suffices; the transfer latencies are unchanged. *)
let small_caps =
  {
    p with
    Params.rf_capacity_bytes = 8 * 272;
    l2_state_capacity_bytes = 16 * 272;
    l3_state_capacity_bytes = 32 * 272;
  }

let wake_latency_for_tier tier =
  let sim = Sim.create () in
  let chip = Chip.create sim small_caps ~cores:1 in
  let memory = Chip.memory chip in
  let doorbell = Memory.alloc memory 1 in
  let store = Chip.state_store chip 0 in
  let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
  (* Enough fillers to occupy every tier above the target. *)
  let fillers =
    match tier with
    | State_store.Register_file -> 0
    | State_store.L2 -> 8
    | State_store.L3 -> 8 + 16
    | State_store.Dram -> 8 + 16 + 32
  in
  let filler =
    Array.init fillers (fun i -> State_store.register store ~ptid:(1001 + i) ~bytes:272)
  in
  let woke_at = ref 0 in
  Chip.attach th (fun t ->
      Isa.monitor t doorbell;
      let _ = Isa.mwait t in
      woke_at := Sim.now ());
  Chip.boot th;
  Sim.spawn sim (fun () ->
      (* After ptid 1 has parked, heat every filler (making ptid 1 the
         global LRU victim) and promote them all: ptid 1 sinks exactly to
         the target tier. *)
      Sim.delay 10_000;
      Array.iter (State_store.touch store) filler;
      Array.iter (fun e -> ignore (State_store.wake_transfer_cycles store e)) filler;
      assert (fillers = 0 || State_store.tier_of store (Chip.store_entry th) = tier);
      Sim.delay 10_000;
      Memory.write memory doorbell 1L);
  Sim.run sim;
  !woke_at - 20_000

let latency_ladder b =
  let rows =
    List.map
      (fun tier ->
        [
          Tablefmt.String (State_store.tier_name tier);
          Tablefmt.Int (wake_latency_for_tier tier);
        ])
      [ State_store.Register_file; State_store.L2; State_store.L3; State_store.Dram ]
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render ~title:"E8b: measured mwait-wake latency by resident tier (cycles)"
       ~header:[ "state resides in"; "wake latency" ]
       rows)

(* N threads per core, woken in round-robin; mean/max wake latency.  The
   monitor table is enlarged so this sweep isolates state storage (E9
   covers monitor-table scaling). *)
let wake_sweep ~pin_first ~prefetch n =
  let sim = Sim.create () in
  let params = { p with Params.monitor_capacity_per_core = 1_000_000 } in
  let chip = Chip.create sim params ~cores:1 in
  let memory = Chip.memory chip in
  let store = Chip.state_store chip 0 in
  let lat = Histogram.create () in
  let first_lat = Histogram.create () in
  let doorbells = Array.init n (fun _ -> Memory.alloc memory 1) in
  let wake_request = Array.make n 0 in
  let threads =
    Array.init n (fun i -> Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.User ())
  in
  for i = 0 to n - 1 do
    let th = threads.(i) in
    Chip.attach th (fun t ->
        Isa.monitor t doorbells.(i);
        let rec loop () =
          let _ = Isa.mwait t in
          let latency = Sim.now () - wake_request.(i) in
          Histogram.record lat latency;
          if i = 0 then Histogram.record first_lat latency;
          loop ()
        in
        loop ());
    Chip.boot th
  done;
  if pin_first then Chip.pin_state threads.(0);
  let rounds = 3 in
  Sim.spawn sim (fun () ->
      (* Let the boot storm (every thread arming its monitor) drain before
         measuring wakes. *)
      Sim.delay (max 1000 (20 * n));
      for _ = 1 to rounds do
        for i = 0 to n - 1 do
          if prefetch then State_store.prefetch store (Chip.store_entry threads.(i));
          wake_request.(i) <- Sim.now ();
          Memory.write memory doorbells.(i) 1L;
          (* Give the wake time to complete before the next one. *)
          Sim.delay 400
        done
      done);
  Sim.run ~until:(max 1000 (20 * n) + (rounds * n * 400) + 1000) sim;
  (Histogram.mean lat, Histogram.max_value lat, Histogram.mean first_lat)

let thread_count_sweep b =
  let counts = [ 16; 64; 240; 500; 1000; 2000 ] in
  let rows =
    List.map
      (fun n ->
        let mean, max_v, _ = wake_sweep ~pin_first:false ~prefetch:false n in
        let _, _, pinned = wake_sweep ~pin_first:true ~prefetch:false n in
        let pf_mean, _, _ = wake_sweep ~pin_first:false ~prefetch:true n in
        ( float_of_int n,
          [ mean; float_of_int max_v; pinned; pf_mean ] ))
      counts
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E8c: wake latency vs threads/core (round-robin wakes, cycles)"
       ~x_label:"threads"
       ~columns:[ "mean"; "max"; "pinned thread"; "with prefetch" ]
       rows)

let run b =
  capacity_table b;
  latency_ladder b;
  thread_count_sweep b
