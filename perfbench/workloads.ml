(* The benchmark's three workloads.

   Each workload is a fixed list of worlds built from the run's seed; a
   round runs them one after another, each to completion (a closed loop
   of one).  Every world returns its op count, its correctness verdict
   and the simulated statistics it read, for the fingerprint.

   - lock-contend: one 4-core chip per point; contenders loop acquire ->
     seeded-length critical section -> release over all six [Lock] kinds
     at 64 and 250 contenders.  Op = one critical section.
   - io-load: open-loop Poisson requests through a NIC into the four
     [Io_path.run_load_*] designs at loads 0.5 and 0.85 of capacity, with
     exponential and Pareto service, plus 16 closed-loop clients against
     [Server.run_hw_pool_closed].  Op = one completed request.  Worlds
     are long enough that the idle time a polling loop burns varies
     little between seeds.
   - wake-scale: one core holding more threads than its register file,
     L2 and L3 state slices (about 8.4k GP contexts at default [Params]),
     each parked on its own doorbell; a generator process wakes them one
     at a time in seeded random order through [Memory.write].  Op = one
     wake. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Lock = Sl_sync.Lock
module Io_path = Sl_os.Io_path
module Server = Sl_dist.Server
module Arrivals = Sl_workload.Arrivals
module Latency = Sl_workload.Latency
module Histogram = Sl_util.Histogram
module Dist = Sl_util.Dist
module Rng = Sl_util.Rng

type world = Obs.world

let names = [ "lock-contend"; "io-load"; "wake-scale" ]

(* --- lock-contend ------------------------------------------------------ *)

(* As in E-LOCK, the monitor table is oversized so lock behaviour is not
   mixed up with monitor-capacity effects. *)
let lock_params = { Params.default with Params.monitor_capacity_per_core = 1_000_000 }

let lock_cores = 4
let lock_points = [ (64, 400); (250, 300) ]
let cs_min = 300
let cs_span = 601

(* Span key of a lock kind's worlds: "sync." and the kind's name with
   '_' for '.', as in sync.park_mwait. *)
let lock_layer kind = "sync." ^ String.map (fun c -> if c = '.' then '_' else c) (Lock.kind_name kind)

let lock_world ~seed ~kind ~contenders ~quota () : world =
  let sim = Sim.create () in
  let chip = Chip.create sim lock_params ~cores:lock_cores in
  let lock = Lock.create chip kind in
  let rng = Rng.create seed in
  let remaining = ref quota and completed = ref 0 in
  (* Occupancy witness: counts holders across the critical section,
     which suspends, so a second holder would be seen. *)
  let holders = ref 0 and overlap = ref false in
  for i = 0 to contenders - 1 do
    let th =
      Chip.add_thread chip ~core:(i mod lock_cores) ~ptid:(i + 1) ~mode:Ptid.User ()
    in
    Chip.attach th (fun t ->
        let go = ref true in
        while !go do
          Lock.acquire lock t;
          incr holders;
          if !holders > 1 then overlap := true;
          if !remaining > 0 then begin
            decr remaining;
            incr completed;
            Isa.exec t (cs_min + Rng.int rng cs_span)
          end
          else go := false;
          decr holders;
          Lock.release lock t
        done);
    Chip.boot th
  done;
  Sim.run sim;
  let st = Lock.stats lock in
  let h = st.Lock.handoff in
  let handoffs = Histogram.count h in
  let ok = !completed = quota && (not !overlap) && Lock.owner lock = -1 in
  {
    Obs.label = Printf.sprintf "lock.%s.%d" (Lock.kind_name kind) contenders;
    layer = lock_layer kind;
    ops = !completed;
    attempted = quota;
    ok;
    text =
      Printf.sprintf "done=%d owner=%d acq=%d cont=%d parks=%d wakes=%d ho=%d hm=%h p50=%d p99=%d fifo=%h max=%d min=%d"
        !completed (Lock.owner lock) st.Lock.acquires st.Lock.contended st.Lock.parks
        st.Lock.wakes handoffs (Histogram.mean h) (Histogram.quantile h 0.5)
        (Histogram.quantile h 0.99) st.Lock.fifo_distance_mean st.Lock.max_count
        st.Lock.min_count;
    model =
      [
        ("sync.acquires", float_of_int st.Lock.acquires);
        ("sync.contended", float_of_int st.Lock.contended);
        ("sync.parks", float_of_int st.Lock.parks);
        ("sync.wakes", float_of_int st.Lock.wakes);
        ("sync.handoffs", float_of_int handoffs);
        ("sync.handoff_cycles", Histogram.mean h *. float_of_int handoffs);
      ];
    host = [];
  }

let lock_round ~seed =
  let rng = Rng.create seed in
  List.concat_map
    (fun (contenders, quota) ->
      List.map
        (fun kind ->
          let seed = Rng.next_int64 rng in
          lock_world ~seed ~kind ~contenders ~quota)
        Lock.all_kinds)
    lock_points

(* --- io-load ----------------------------------------------------------- *)

let mean_service = 1400.0
let capacity_per_kcycle = 1000.0 /. mean_service
let slo = 30_000
let requests = 4000
let loads = [ 0.5; 0.85 ]

let services =
  [ ("exp", Dist.Exponential mean_service); ("pareto", Dist.Pareto { scale = 840.0; shape = 2.5 }) ]

let designs =
  [
    ("mwait", Io_path.run_load_mwait);
    ("polling", fun c -> Io_path.run_load_polling c);
    ("irq", Io_path.run_load_interrupt);
    ("flexsc", fun c -> Io_path.run_load_flexsc c);
  ]

let io_layers = List.map (fun (design, _) -> "io_path." ^ design) designs @ [ "server.closed" ]

let closed_clients = 16
let closed_think = Dist.Exponential 8000.0

(* The Io_path designs without a chip report their core's cycles only in
   their own stats; the chip designs are counted from the chip. *)
let chipless design = design = "irq" || design = "flexsc"

let io_world ~seed ~design ~run ~load ~service_name ~service () =
  let cfg =
    {
      Io_path.params = Params.default;
      seed;
      arrivals = Arrivals.poisson ~rate_per_kcycle:(load *. capacity_per_kcycle);
      service;
      count = requests;
      slo;
    }
  in
  let r = run cfg in
  let io = r.Io_path.io and lat = r.Io_path.lat in
  let ok = io.Io_path.processed = requests && io.Io_path.dropped = 0 && lat.Latency.count = requests in
  ( {
    Obs.label = Printf.sprintf "io.%s.%s.%.2f" design service_name load;
    layer = "io_path." ^ design;
    ops = io.Io_path.processed;
    attempted = requests;
    ok;
    text =
      Printf.sprintf "n=%d drop=%d el=%d u=%h p=%h o=%h mean=%h p50=%d p99=%d p999=%d max=%d miss=%d"
        io.Io_path.processed io.Io_path.dropped io.Io_path.elapsed_cycles io.Io_path.useful_cycles
        io.Io_path.poll_cycles io.Io_path.overhead_cycles lat.Latency.mean lat.Latency.p50
        lat.Latency.p99 lat.Latency.p999 lat.Latency.max_v lat.Latency.slo_miss;
    model =
      [
        ("workload.requests", float_of_int lat.Latency.count);
        ("workload.slo_miss", float_of_int lat.Latency.slo_miss);
      ]
      @
      if chipless design then
        [
          ("smt_core.useful_cycles", io.Io_path.useful_cycles);
          ("smt_core.poll_cycles", io.Io_path.poll_cycles);
          ("smt_core.overhead_cycles", io.Io_path.overhead_cycles);
        ]
      else [];
    host = [];
  },
  io.Io_path.latencies )

let closed_world ~seed () : world =
  let r =
    Server.run_hw_pool_closed ~clients:closed_clients ~slo ~think:closed_think
      {
        Server.params = Params.default;
        seed;
        cores = 1;
        rate_per_kcycle = 0.0;
        service = Dist.Exponential mean_service;
        count = requests;
      }
  in
  let lat = r.Server.lat in
  let ok =
    r.Server.issued = r.Server.finished + r.Server.c_timed_out && r.Server.finished = requests
  in
  {
    Obs.label = "server.closed";
    layer = "server.closed";
    ops = r.Server.finished;
    attempted = requests;
    ok;
    text =
      Printf.sprintf "iss=%d fin=%d to=%d wall=%d mean=%h p50=%d p99=%d max=%d miss=%d"
        r.Server.issued r.Server.finished r.Server.c_timed_out r.Server.wall_cycles
        lat.Latency.mean lat.Latency.p50 lat.Latency.p99 lat.Latency.max_v lat.Latency.slo_miss;
    model =
      [
        ("workload.requests", float_of_int lat.Latency.count);
        ("workload.slo_miss", float_of_int lat.Latency.slo_miss);
      ];
    host = [];
  }

(* The open-loop worlds' sojourn histograms of the current round, for
   the workload.sojourn_* quantiles (the closed-loop runner exposes only
   a summary). *)
let sojourns : Histogram.t list ref = ref []

(* [faulty] drops the polling design: it spins until every request is
   processed, so a run that loses requests would never end. *)
let io_round ~faulty ~seed =
  sojourns := [];
  let rng = Rng.create seed in
  let open_worlds =
    List.concat_map
      (fun load ->
        List.concat_map
          (fun (service_name, service) ->
            List.filter_map
              (fun (design, run) ->
                let seed = Rng.next_int64 rng in
                if faulty && design = "polling" then None
                else
                  Some
                    (fun () ->
                      let w, h = io_world ~seed ~design ~run ~load ~service_name ~service () in
                      sojourns := h :: !sojourns;
                      w))
              designs)
          services)
      loads
  in
  let seed = Rng.next_int64 rng in
  open_worlds @ [ closed_world ~seed ]

(* --- wake-scale -------------------------------------------------------- *)

let wake_threads = 12_000

let wake_world ~seed ~spans () : world =
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores:1 in
  let memory = Chip.memory chip in
  let n = wake_threads in
  let base = Memory.alloc memory n in
  let armed = ref 0 and woken = ref 0 and misdirected = ref 0 and written = ref 0 in
  (* The generator waits here for all threads to arm, then for each wake
     to be observed before it rings the next doorbell. *)
  let waiting = ref None in
  let resume () =
    match !waiting with
    | Some k ->
      waiting := None;
      k ()
    | None -> ()
  in
  let add_ns = ref 0 in
  for i = 0 to n - 1 do
    let t0 = if spans then Obs.now_ns () else 0 in
    let th = Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.User () in
    Chip.attach th (fun t ->
        Isa.monitor t (base + i);
        incr armed;
        if !armed = n then resume ();
        let a = Isa.mwait t in
        if a = base + i then incr woken else incr misdirected;
        resume ());
    Chip.boot th;
    if spans then add_ns := !add_ns + (Obs.now_ns () - t0)
  done;
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.create seed) order;
  let bell_ns = ref 0 in
  Sim.spawn sim (fun () ->
      if !armed < n then Sim.await (fun k -> waiting := Some k);
      Array.iter
        (fun i ->
          let t0 = if spans then Obs.now_ns () else 0 in
          Memory.write memory (base + i) 1L;
          if spans then bell_ns := !bell_ns + (Obs.now_ns () - t0);
          incr written;
          Sim.await (fun k -> waiting := Some k))
        order);
  Sim.run sim;
  {
    Obs.label = "wake";
    layer = "chip";
    ops = !woken;
    attempted = n;
    ok = !woken = n && !written = n && !misdirected = 0;
    text = Printf.sprintf "n=%d armed=%d woken=%d written=%d mis=%d" n !armed !woken !written !misdirected;
    model = [];
    host =
      (if spans then
         [
           ("chip.doorbell_ns", float_of_int !bell_ns);
           ("chip.doorbells", float_of_int !written);
           ("chip.add_thread_ns", float_of_int !add_ns);
           ("chip.added_threads", float_of_int n);
         ]
       else []);
  }

let wake_round ~spans ~seed = [ wake_world ~seed ~spans ]

(* --- dispatch ---------------------------------------------------------- *)

let round name ~spans ~faulty ~seed =
  match name with
  | "lock-contend" -> lock_round ~seed
  | "io-load" -> io_round ~faulty ~seed
  | "wake-scale" -> wake_round ~spans ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
