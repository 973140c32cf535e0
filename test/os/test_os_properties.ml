(* Property tests over the OS layer: channels never deadlock or lose
   requests under random client interleavings; I/O paths conserve
   packets. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Hw_channel = Sl_os.Hw_channel
module Io_path = Sl_os.Io_path
module Arrivals = Sl_workload.Arrivals
module Histogram = Sl_util.Histogram
module Dist = Sl_util.Dist
module Rng = Sl_util.Rng

(* Property 1: N clients with random think times all complete their calls
   through one shared channel — serialization never deadlocks and the
   server serves exactly the submitted number of requests. *)
let prop_channel_serves_all_clients =
  QCheck.Test.make ~name:"hw channel serves all under random interleavings" ~count:40
    QCheck.(list_of_size Gen.(1 -- 6) (pair (int_range 1 4) (int_range 1 2000)))
    (fun clients ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:2 in
      let channel = Hw_channel.create chip ~core:1 ~server_ptid:500 () in
      let total = List.fold_left (fun acc (calls, _) -> acc + calls) 0 clients in
      let completed = ref 0 in
      List.iteri
        (fun i (calls, think) ->
          let client =
            Chip.add_thread chip ~core:0 ~ptid:(i + 1) ~mode:Ptid.Supervisor ()
          in
          Chip.attach client (fun th ->
              for _ = 1 to calls do
                Sim.delay think;
                Hw_channel.call channel ~client:th ~work:100 ();
                incr completed
              done);
          Chip.boot client)
        clients;
      Sim.run ~until:50_000_000 sim;
      !completed = total && Hw_channel.served channel = total)

(* Property 2: the mwait I/O path conserves packets at any load: processed
   + dropped = injected, and every latency is at least the hardware
   minimum (DMA + match + restart). *)
let prop_io_conservation =
  QCheck.Test.make ~name:"io path conserves packets at any load" ~count:25
    QCheck.(pair (int_range 1 50) (int_range 50 400))
    (fun (rate_tenths, count) ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.count;
          arrivals = Arrivals.poisson ~rate_per_kcycle:(float_of_int rate_tenths /. 10.0);
          service = Dist.Constant 200.0;
        }
      in
      let s = (Io_path.run Io_path.Mwait cfg).Io_path.io in
      s.Io_path.processed = count
      && s.Io_path.dropped = 0
      && Histogram.min_value s.Io_path.latencies >= 200)

(* Property 3: work conservation across designs — total useful cycles
   equal packets x work for every design. *)
let prop_designs_do_same_useful_work =
  QCheck.Test.make ~name:"all designs do identical useful work" ~count:15
    QCheck.(int_range 50 300)
    (fun count ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.count;
          arrivals = Arrivals.poisson ~rate_per_kcycle:0.4;
          service = Dist.Constant 300.0;
        }
      in
      let expected = float_of_int count *. 300.0 in
      let close d =
        let s = (Io_path.run d cfg).Io_path.io in
        abs_float (s.Io_path.useful_cycles -. expected) < 2.0 *. float_of_int count
      in
      List.for_all close Io_path.[ Mwait; Polling; Irq; Napi ])

(* Property 4: every delivery design serves the same requests.  Over a
   random seed and a constant or sampled service demand, each design
   serves exactly [count] requests with no drops, and reports as useful
   cycles exactly the sum of the sampled demands. *)
let deliveries =
  Io_path.
    [
      Mwait;
      Mwait_hardened { watchdog = false; horizon = None };
      Rss 4;
      Polling;
      Irq;
      Napi;
      Flexsc;
    ]

(* Replay the request stream's draws: same seed, same order as
   [Openloop.run] (gap, then demand, on one stream). *)
let total_demand (cfg : Io_path.config) =
  let rng = Rng.create cfg.Io_path.seed in
  let next_gap = Arrivals.sampler cfg.Io_path.arrivals rng in
  let total = ref 0 in
  for _ = 1 to cfg.Io_path.count do
    ignore (next_gap ());
    total := !total + max 0 (int_of_float (Dist.sample cfg.Io_path.service rng))
  done;
  float_of_int !total

let prop_every_delivery_serves_the_same_requests =
  QCheck.Test.make ~name:"every delivery serves the sampled requests" ~count:20
    QCheck.(pair (int_range 1 1_000_000) bool)
    (fun (seed, sampled) ->
      let cfg =
        {
          Io_path.default_config with
          Io_path.seed = Int64.of_int seed;
          count = 150;
          arrivals = Arrivals.poisson ~rate_per_kcycle:0.3;
          service = (if sampled then Dist.Exponential 1400.0 else Dist.Constant 500.0);
        }
      in
      let expected = total_demand cfg in
      List.for_all
        (fun d ->
          let s = (Io_path.run d cfg).Io_path.io in
          s.Io_path.processed = cfg.Io_path.count
          && s.Io_path.dropped = 0
          && abs_float (s.Io_path.useful_cycles -. expected) <= 1e-9 *. expected)
        deliveries)

(* Property 5: arrivals as events replay the world they replaced.  A
   random world is built twice.  The event path: [Openloop.run], whose
   sink schedules an event at the arrival tick that calls [Nic.arrive].
   The process path, the shape these arrivals had before: a generator
   process looping [Sim.delay (next_gap ())] that forks, per request, a
   process that arrives and waits out the DMA ([Nic.inject]).  Both
   must show the same packets (id, flow, stamp), the same memory writes
   at the same ticks (descriptors, doorbells), the same receive ticks,
   the same drops and the same final clock.  Event counts differ by
   design and are not compared. *)
module Nic = Sl_dev.Nic
module Notify = Sl_dev.Notify
module Openloop = Sl_workload.Openloop
module Mailbox = Sl_engine.Mailbox
module Memory = Switchless.Memory

type arrival_world = {
  seed : int;
  bursty : bool;  (* two-state MMPP, else Poisson *)
  rate_tenths : int;  (* arrivals per 10 kcycles *)
  count : int;
  queues : int;
  flows : bool;  (* explicit flow labels, else the NIC's ids *)
  depth : int;  (* ring depth: small ones drop *)
  irq : bool;  (* consumer: an Irq_line into a mailbox, else mwait threads *)
  work : int;  (* cycles per received packet *)
}

type observed = {
  received : (int * int * int * int) list;  (* tick, pkt_id, flow, injected_at *)
  writes : (int * int * int64) list;  (* tick, address, value *)
  drops : int list;  (* by queue *)
  clock : int;
}

let observe_arrivals ~processes w =
  let sim = Sim.create () in
  let params = Params.default in
  let rate = float_of_int w.rate_tenths /. 10.0 in
  let arrivals =
    if w.bursty then Arrivals.bursty ~rate_per_kcycle:rate ~amplitude:0.8 ~mean_dwell:3000.0
    else Arrivals.poisson ~rate_per_kcycle:rate
  in
  let service = Dist.Exponential 400.0 in
  let flow_of i = if w.flows then Some (((i * 7) + w.seed) mod 5) else None in
  let received = ref [] in
  let rec drain nic q work =
    match Nic.poll_queue nic q with
    | Some pkt ->
      received := (Sim.now (), pkt.Nic.pkt_id, pkt.Nic.flow, pkt.Nic.injected_at) :: !received;
      work ();
      drain nic q work
    | None -> ()
  in
  let create memory notify =
    Nic.create sim params memory ~notify ~queues:w.queues ~queue_depth:w.depth ()
  in
  let nic, memory =
    if w.irq then begin
      let memory = Memory.create () in
      let bell = Mailbox.create () in
      let nic = create memory (Notify.Irq_line (fun () -> Mailbox.send bell ())) in
      Sim.spawn sim (fun () ->
          while true do
            Mailbox.recv bell;
            for q = 0 to w.queues - 1 do
              drain nic q (fun () -> Sim.delay w.work)
            done
          done);
      (nic, memory)
    end
    else begin
      let chip = Chip.create sim params ~cores:1 in
      let nic = create (Chip.memory chip) Notify.Silent in
      for q = 0 to w.queues - 1 do
        let th = Chip.add_thread chip ~core:0 ~ptid:(q + 1) ~mode:Ptid.Supervisor () in
        Chip.attach th (fun th ->
            Isa.monitor th (Nic.queue_tail_addr nic q);
            while true do
              if Nic.pending_queue nic q = 0 then ignore (Isa.mwait th);
              drain nic q (fun () -> Isa.exec th w.work)
            done);
        Chip.boot th
      done;
      (nic, Chip.memory chip)
    end
  in
  let writes = ref [] in
  Memory.add_write_hook memory (fun addr v -> writes := (Sim.time sim, addr, v) :: !writes);
  let rng = Rng.create (Int64.of_int w.seed) in
  if processes then
    Sim.spawn sim (fun () ->
        let next_gap = Arrivals.sampler arrivals rng in
        for i = 0 to w.count - 1 do
          Sim.delay (next_gap ());
          ignore (Dist.sample service rng : float);
          let flow = flow_of i in
          Sim.fork (fun () -> Nic.inject ?flow nic)
        done)
  else
    Openloop.run sim rng ~arrivals ~service ~count:w.count ~sink:(fun req ->
        let flow = flow_of req.Openloop.req_id in
        Sim.schedule sim ~at:(Sim.time sim) (fun () -> Nic.arrive ?flow nic));
  Sim.run sim;
  {
    received = List.rev !received;
    writes = List.rev !writes;
    drops = List.init w.queues (Nic.dropped_queue nic);
    clock = Sim.time sim;
  }

let arrival_world_gen =
  QCheck.map
    (fun (seed, bursty, rate_tenths, count, queues, flows, depth, irq, work) ->
      { seed; bursty; rate_tenths; count; queues; flows; depth; irq; work })
    QCheck.(
      tup9 (int_range 1 1_000_000) bool (int_range 1 80) (int_range 1 200) (int_range 1 4)
        bool (int_range 1 8) bool (int_range 1 3000))
  |> QCheck.set_print (fun w ->
         Printf.sprintf
           "seed %d, %s at %d/10k, %d requests, %d queues%s, depth %d, %s consumer, work %d"
           w.seed (if w.bursty then "MMPP" else "Poisson") w.rate_tenths w.count w.queues
           (if w.flows then " with flows" else "") w.depth (if w.irq then "irq" else "mwait")
           w.work)

(* Every request is either received or counted as a ring-full drop. *)
let conserves w o = List.length o.received + List.fold_left ( + ) 0 o.drops = w.count

let prop_arrival_events_replay_processes =
  QCheck.Test.make ~name:"arrival events replay arrival processes" ~count:60
    arrival_world_gen (fun w ->
      let events = observe_arrivals ~processes:false w in
      conserves w events && events = observe_arrivals ~processes:true w)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_channel_serves_all_clients;
        prop_io_conservation;
        prop_designs_do_same_useful_work;
        prop_every_delivery_serves_the_same_requests;
        prop_arrival_events_replay_processes;
      ]
  in
  Alcotest.run "os_properties" [ ("properties", qsuite) ]
