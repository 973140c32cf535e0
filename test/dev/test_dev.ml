(* Tests for the device models: NIC ring, APIC timer, NVMe, MSI-X. *)

module Sim = Sl_engine.Sim
module Memory = Switchless.Memory
module Params = Switchless.Params
module Nic = Sl_dev.Nic
module Notify = Sl_dev.Notify
module Apic_timer = Sl_dev.Apic_timer
module Nvme = Sl_dev.Nvme
module Openloop = Sl_workload.Openloop
module Arrivals = Sl_workload.Arrivals

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

let p = Params.default

let test_nic_inject_poll_roundtrip () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:8 () in
  Sim.spawn sim (fun () ->
      Nic.inject nic;
      Nic.inject nic);
  Sim.run sim;
  check_int "two pending" 2 (Nic.pending nic);
  (match Nic.poll nic with
  | Some pkt ->
    check_int "fifo: first id" 0 pkt.Nic.pkt_id;
    check_int "arrival stamped before DMA" 0 pkt.Nic.injected_at
  | None -> Alcotest.fail "expected packet");
  (match Nic.poll nic with
  | Some pkt ->
    check_int "second id" 1 pkt.Nic.pkt_id;
    check_int "second arrival after first DMA" p.Params.dma_write_cycles
      pkt.Nic.injected_at
  | None -> Alcotest.fail "expected second packet");
  check_bool "drained" true (Nic.poll nic = None)

let test_nic_tail_write_visible_in_memory () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:8 () in
  Sim.spawn sim (fun () ->
      Nic.inject nic;
      Nic.inject nic;
      Nic.inject nic);
  Sim.run sim;
  check_i64 "tail counter" 3L (Memory.read mem (Nic.rx_tail_addr nic))

let test_nic_overflow_drops () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:2 () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 5 do
        Nic.inject nic
      done);
  Sim.run sim;
  check_int "delivered" 2 (Nic.delivered nic);
  check_int "dropped" 3 (Nic.dropped nic)

let test_nic_irq_notify () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let fired = ref 0 in
  let nic =
    Nic.create sim p mem ~notify:(Notify.Irq_line (fun () -> incr fired)) ~queue_depth:8 ()
  in
  Sim.spawn sim (fun () ->
      Nic.inject nic;
      Nic.inject nic);
  Sim.run sim;
  check_int "irq per packet" 2 !fired

let test_nic_msix_notify () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let vector_addr = Memory.alloc mem 1 in
  let nic = Nic.create sim p mem ~notify:(Notify.Msix vector_addr) ~queue_depth:8 () in
  Sim.spawn sim (fun () -> Nic.inject nic);
  Sim.run sim;
  check_i64 "msix wrote the vector word" 1L (Memory.read mem vector_addr);
  (* The MSI-X write happens after the translation delay. *)
  check_int "time includes translation"
    (p.Params.dma_write_cycles + p.Params.msix_translation_cycles)
    (Sim.time sim)

(* Every memory write of a world, as (tick, address, value), oldest
   first. *)
let log_writes sim mem =
  let log = ref [] in
  Memory.add_write_hook mem (fun addr v -> log := (Sim.time sim, addr, v) :: !log);
  fun () -> List.rev !log

let ticks_of addr writes =
  List.filter_map (fun (t, a, _) -> if a = addr then Some t else None) writes

let dma = p.Params.dma_write_cycles

let poll_ids nic q =
  List.init (Nic.pending_queue nic q) (fun _ ->
      match Nic.poll_queue nic q with Some pkt -> pkt.Nic.pkt_id | None -> -1)

let test_nic_arrive_from_callback () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:8 () in
  let writes = log_writes sim mem in
  let pending_at_arrival = ref (-1) in
  Sim.schedule sim ~at:100 (fun () ->
      Nic.arrive nic;
      pending_at_arrival := Nic.pending nic);
  Sim.run sim;
  check_int "nothing lands at the arrival tick" 0 !pending_at_arrival;
  (match Nic.poll nic with
  | Some pkt ->
    check_int "stamped at the arrival tick" 100 pkt.Nic.injected_at;
    check_int "first id" 0 pkt.Nic.pkt_id
  | None -> Alcotest.fail "expected packet");
  Alcotest.(check (list int)) "descriptor then doorbell, one DMA later"
    [ 100 + dma; 100 + dma ]
    (List.map (fun (t, _, _) -> t) (writes ()));
  check_int "clock stops at the landing" (100 + dma) (Sim.time sim)

let test_nic_arrive_lands_fifo_across_queues () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queues:3 ~queue_depth:8 () in
  let writes = log_writes sim mem in
  (* Four packets in flight at once, over three queues. *)
  List.iter
    (fun (at, flow) -> Sim.schedule sim ~at (fun () -> Nic.arrive ~flow nic))
    [ (10, 2); (10, 0); (11, 1); (12, 2) ];
  Sim.run sim;
  let tails = List.init 3 (Nic.queue_tail_addr nic) in
  let doorbell (t, a, _) = Option.map (fun q -> (t, q)) (List.find_index (( = ) a) tails) in
  Alcotest.(check (list (pair int int))) "doorbells in admission order"
    [ (10 + dma, 2); (10 + dma, 0); (11 + dma, 1); (12 + dma, 2) ]
    (List.filter_map doorbell (writes ()));
  Alcotest.(check (list (list int))) "ids by queue" [ [ 1 ]; [ 2 ]; [ 0; 3 ] ]
    (List.init 3 (poll_ids nic))

(* More packets in flight at once than the device's in-flight buffer
   starts with: it grows and keeps their order. *)
let test_nic_arrive_burst () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queues:3 ~queue_depth:64 () in
  let writes = log_writes sim mem in
  Sim.schedule sim ~at:0 (fun () ->
      for i = 0 to 39 do
        Nic.arrive ~flow:(i mod 3) nic
      done);
  Sim.schedule sim ~at:1 (fun () -> Nic.arrive ~flow:0 nic);
  Sim.run sim;
  let every3 q = List.filter (fun i -> i mod 3 = q) (List.init 40 Fun.id) in
  Alcotest.(check (list (list int))) "ids by queue, in admission order"
    [ every3 0 @ [ 40 ]; every3 1; every3 2 ]
    (List.init 3 (poll_ids nic));
  check_int "the last write one DMA after the late arrival" (1 + dma)
    (List.fold_left (fun _ (t, _, _) -> t) 0 (writes ()));
  check_int "writes" 82 (List.length (writes ()))

let test_nic_arrive_drops_at_arrival () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:1 () in
  let writes = log_writes sim mem in
  let dropped_at_arrival = ref (-1) in
  Sim.schedule sim ~at:0 (fun () -> Nic.arrive nic);
  Sim.schedule sim ~at:(dma + 5) (fun () ->
      Nic.arrive nic;
      dropped_at_arrival := Nic.dropped nic);
  Sim.run sim;
  check_int "counted in the arrival's own event" 1 !dropped_at_arrival;
  check_int "clock" (dma + 5) (Sim.time sim);
  check_int "one landing only" 2 (List.length (writes ()));
  check_int "delivered" 1 (Nic.delivered nic)

let test_nic_arrive_msix_after_landing () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let vector = Memory.alloc mem 1 in
  let nic = Nic.create sim p mem ~notify:(Notify.Msix vector) ~queue_depth:8 () in
  let writes = log_writes sim mem in
  Sim.schedule sim ~at:20 (fun () -> Nic.arrive nic);
  Sim.run sim;
  Alcotest.(check (list int)) "doorbell one DMA after the arrival" [ 20 + dma ]
    (ticks_of (Nic.rx_tail_addr nic) (writes ()));
  Alcotest.(check (list int)) "vector one translation after the doorbell"
    [ 20 + dma + p.Params.msix_translation_cycles ]
    (ticks_of vector (writes ()));
  check_i64 "vector bumped" 1L (Memory.read mem vector)

(* Arrivals of a Poisson stream into a NIC nobody drains, each an event
   at its arrival tick that calls [Nic.arrive], as [Io_path] posts them:
   the request, the packet, its ring option, two boxed words and the
   draws' boxes, 36 words.  110 when each arrival forked a process that
   waited out the DMA. *)
let test_openloop_arrival_allocation () =
  let run n =
    let sim = Sim.create () in
    let nic = Nic.create sim p (Memory.create ()) ~queue_depth:(n + 1) () in
    let arrive () = Nic.arrive nic in
    Openloop.run sim (Sl_util.Rng.create 1L)
      ~arrivals:(Arrivals.poisson ~rate_per_kcycle:0.5)
      ~service:(Sl_util.Dist.Exponential 500.0) ~count:n
      ~sink:(fun _ -> Sim.schedule sim ~at:(Sim.time sim) arrive);
    let before = Gc.minor_words () in
    Sim.run sim;
    Gc.minor_words () -. before
  in
  ignore (run 1_000 : float);
  let w = (run 20_000 -. run 10_000) /. 10_000.0 in
  check_bool (Printf.sprintf "%.1f minor words per arrival < 40" w) true (w < 40.0)

let test_timer_ticks_and_counter () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let timer = Apic_timer.create sim p mem ~period:100 () in
  Apic_timer.start timer;
  Sim.schedule sim ~at:1001 (fun () -> Apic_timer.stop timer);
  Sim.run ~until:2000 sim;
  check_int "ten ticks" 10 (Apic_timer.ticks timer);
  check_i64 "counter word" 10L (Memory.read mem (Apic_timer.count_addr timer))

let test_timer_stop_is_idempotent () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let timer = Apic_timer.create sim p mem ~period:50 () in
  Apic_timer.start timer;
  Apic_timer.start timer;
  Sim.schedule sim ~at:175 (fun () -> Apic_timer.stop timer);
  Sim.run sim;
  check_int "three ticks, single process" 3 (Apic_timer.ticks timer)

let test_nic_multiqueue_steering () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queues:4 ~queue_depth:8 () in
  Sim.spawn sim (fun () ->
      (* Default flow = packet id: round-robin across the 4 queues. *)
      for _ = 1 to 8 do
        Nic.inject nic
      done);
  Sim.run sim;
  check_int "queues" 4 (Nic.queue_count nic);
  for q = 0 to 3 do
    check_int (Printf.sprintf "queue %d holds 2" q) 2 (Nic.pending_queue nic q)
  done;
  (match Nic.poll_queue nic 1 with
  | Some pkt -> check_int "queue 1 sees flow 1" 1 pkt.Nic.flow
  | None -> Alcotest.fail "expected packet in queue 1");
  check_int "total pending" 7 (Nic.pending nic)

let test_nic_flow_affinity () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queues:4 ~queue_depth:8 () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 5 do
        Nic.inject ~flow:6 nic
      done);
  Sim.run sim;
  check_int "all on flow's queue" 5 (Nic.pending_queue nic 2);
  check_int "others empty" 0 (Nic.pending_queue nic 0);
  (* Each queue has its own monitored tail word. *)
  check_bool "distinct tails" true
    (Nic.queue_tail_addr nic 0 <> Nic.queue_tail_addr nic 2);
  check_i64 "tail reflects count" 5L (Memory.read mem (Nic.queue_tail_addr nic 2))

let test_nic_per_queue_overflow () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queues:2 ~queue_depth:2 () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 5 do
        Nic.inject ~flow:0 nic
      done;
      Nic.inject ~flow:1 nic);
  Sim.run sim;
  check_int "flow 0 dropped past depth" 3 (Nic.dropped nic);
  check_int "flow 1 unaffected" 1 (Nic.pending_queue nic 1)

let test_nic_multiqueue_drop_accounting () =
  (* Ring-full drops must land on the queue the packet was steered to,
     and consuming descriptors must let the same queue accept again. *)
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queues:3 ~queue_depth:2 () in
  let drops_before_refill = ref (-1) in
  Sim.spawn sim (fun () ->
      for _ = 1 to 5 do
        Nic.inject ~flow:0 nic (* 2 land on q0, 3 drop *)
      done;
      for _ = 1 to 3 do
        Nic.inject ~flow:1 nic (* 2 land on q1, 1 drops *)
      done;
      Nic.inject ~flow:2 nic;
      drops_before_refill := Nic.dropped nic;
      (* Refill after drop: free q0's slots, then the same flow fits. *)
      ignore (Nic.poll_queue nic 0);
      ignore (Nic.poll_queue nic 0);
      Nic.inject ~flow:0 nic);
  Sim.run sim;
  check_int "drops before refill" 4 !drops_before_refill;
  check_int "refill drops nothing" 4 (Nic.dropped nic);
  check_int "q0 drops" 3 (Nic.dropped_queue nic 0);
  check_int "q1 drops" 1 (Nic.dropped_queue nic 1);
  check_int "q2 drops" 0 (Nic.dropped_queue nic 2);
  check_int "per-queue drops sum to total" (Nic.dropped nic)
    (Nic.dropped_queue nic 0 + Nic.dropped_queue nic 1 + Nic.dropped_queue nic 2);
  check_int "refill accepted on q0" 1 (Nic.pending_queue nic 0);
  check_int "delivered counts refill" 6 (Nic.delivered nic)

let test_nic_fault_hooks () =
  (* Drive one packet through each fault point and check both the
     per-class counters and the memory-visible tail behaviour. *)
  let sim = Sim.create () in
  let mem = Memory.create () in
  let nic = Nic.create sim p mem ~queue_depth:8 () in
  let pkts = ref 0 in
  (* Packet 1: doorbell dropped.  Packet 2: doorbell duplicated.
     Packet 3: descriptor DMA lost.  [dma_drop] runs first for every
     packet, so it carries the per-packet counter. *)
  Nic.set_faults nic
    {
      Nic.dma_drop =
        (fun ~queue:_ ->
          incr pkts;
          !pkts = 3);
      doorbell_drop = (fun ~queue:_ -> !pkts = 1);
      doorbell_dup = (fun ~queue:_ -> !pkts = 2);
    };
  let tail_after_drop = ref (-1L) in
  Sim.spawn sim (fun () ->
      Nic.inject nic;
      tail_after_drop := Memory.read mem (Nic.rx_tail_addr nic);
      Nic.inject nic;
      Nic.inject nic);
  Sim.run sim;
  (* The dropped doorbell left the tail word stale even though the
     descriptor landed and is pollable. *)
  check_i64 "tail stale after dropped doorbell" 0L !tail_after_drop;
  check_int "both surviving packets pollable" 2 (Nic.pending nic);
  check_int "delivered excludes the vanished packet" 2 (Nic.delivered nic);
  check_int "dma dropped" 1 (Nic.dma_dropped nic);
  check_int "doorbells dropped" 1 (Nic.doorbells_dropped nic);
  check_int "doorbells duplicated" 1 (Nic.doorbells_duplicated nic);
  check_i64 "final tail reflects second delivery" 2L
    (Memory.read mem (Nic.rx_tail_addr nic))

(* The counter write of tick k lands at k x period, and its MSI-X
   vector write one translation later: notifying never delays the next
   tick. *)
let test_timer_msix_keeps_period () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let vector = Memory.alloc mem 1 in
  let timer = Apic_timer.create sim p mem ~notify:(Notify.Msix vector) ~period:100 () in
  let writes = log_writes sim mem in
  Apic_timer.start timer;
  Sim.schedule sim ~at:450 (fun () -> Apic_timer.stop timer);
  Sim.run sim;
  let msix = p.Params.msix_translation_cycles in
  Alcotest.(check (list int)) "ticks at k x period" [ 100; 200; 300; 400 ]
    (ticks_of (Apic_timer.count_addr timer) (writes ()));
  Alcotest.(check (list int)) "vector writes one translation later"
    [ 100 + msix; 200 + msix; 300 + msix; 400 + msix ]
    (ticks_of vector (writes ()))

let test_nvme_completion_flow () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let rng = Sl_util.Rng.create 1L in
  let nvme =
    Nvme.create sim p mem ~latency:(Sl_util.Dist.Constant 5000.0) ~rng ()
  in
  let submitted = ref (-1) in
  Sim.spawn sim (fun () -> submitted := Nvme.submit nvme);
  Sim.run sim;
  check_int "command id" 0 !submitted;
  check_int "completed" 1 (Nvme.completed nvme);
  check_int "none in flight" 0 (Nvme.in_flight nvme);
  (match Nvme.poll_completion nvme with
  | Some c ->
    check_int "completion id" 0 c.Nvme.cmd_id;
    check_bool "took about the device latency" true
      (c.Nvme.completed_at - c.Nvme.submitted_at >= 5000)
  | None -> Alcotest.fail "expected completion");
  check_i64 "cq tail bumped" 1L (Memory.read mem (Nvme.cq_tail_addr nvme))

let test_nvme_queue_depth_enforced () =
  let sim = Sim.create () in
  let mem = Memory.create () in
  let rng = Sl_util.Rng.create 1L in
  let nvme =
    Nvme.create sim p mem ~queue_depth:2 ~latency:(Sl_util.Dist.Constant 1e6) ~rng ()
  in
  let rejected = ref false in
  Sim.spawn sim (fun () ->
      ignore (Nvme.submit nvme);
      ignore (Nvme.submit nvme);
      match Nvme.submit nvme with
      | _ -> ()
      | exception Invalid_argument _ -> rejected := true);
  Sim.run sim;
  check_bool "third submit rejected" true !rejected

let () =
  Alcotest.run "dev"
    [
      ( "nic",
        [
          Alcotest.test_case "inject/poll roundtrip" `Quick test_nic_inject_poll_roundtrip;
          Alcotest.test_case "tail write in memory" `Quick test_nic_tail_write_visible_in_memory;
          Alcotest.test_case "overflow drops" `Quick test_nic_overflow_drops;
          Alcotest.test_case "irq notify" `Quick test_nic_irq_notify;
          Alcotest.test_case "msix notify" `Quick test_nic_msix_notify;
          Alcotest.test_case "multiqueue steering" `Quick test_nic_multiqueue_steering;
          Alcotest.test_case "flow affinity" `Quick test_nic_flow_affinity;
          Alcotest.test_case "per-queue overflow" `Quick test_nic_per_queue_overflow;
          Alcotest.test_case "multiqueue drop accounting" `Quick
            test_nic_multiqueue_drop_accounting;
          Alcotest.test_case "fault hooks" `Quick test_nic_fault_hooks;
          Alcotest.test_case "arrive from a callback" `Quick test_nic_arrive_from_callback;
          Alcotest.test_case "arrive lands fifo across queues" `Quick
            test_nic_arrive_lands_fifo_across_queues;
          Alcotest.test_case "arrive burst" `Quick test_nic_arrive_burst;
          Alcotest.test_case "arrive drops at arrival" `Quick test_nic_arrive_drops_at_arrival;
          Alcotest.test_case "arrive msix after landing" `Quick
            test_nic_arrive_msix_after_landing;
          Alcotest.test_case "open-loop arrival allocation" `Quick
            test_openloop_arrival_allocation;
        ] );
      ( "timer",
        [
          Alcotest.test_case "ticks and counter" `Quick test_timer_ticks_and_counter;
          Alcotest.test_case "start idempotent" `Quick test_timer_stop_is_idempotent;
          Alcotest.test_case "msix keeps the period" `Quick test_timer_msix_keeps_period;
        ] );
      ( "nvme",
        [
          Alcotest.test_case "completion flow" `Quick test_nvme_completion_flow;
          Alcotest.test_case "queue depth" `Quick test_nvme_queue_depth_enforced;
        ] );
    ]
