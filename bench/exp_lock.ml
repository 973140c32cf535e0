(* E-LOCK — synchronization on hardware threads (lib/sync).

   The paper's pitch applied to locks: blocking on a contended lock via
   monitor/mwait costs nothing while waiting, where today's locks pick
   between spin-waste and the park/unpark context-switch tax.  Six
   designs over the same simulated lock word (see lib/sync/lock.mli):
   TAS and ticket spinlocks, MCS in spin and mwait flavors, a software
   futex baseline (park.sw) paying the full cost-model switch tax, and
   the futex-on-mwait parking lock (park.mwait).

   (a) Contender sweep 1→1000 at a fixed critical section: handoff
       latency (release→grant), throughput (cycles/acquire), spin waste
       (poll fraction of executed cycles), fairness (max−min acquire
       spread, mean |grant−join| FIFO distance).
   (b) Critical-section sweep at fixed contention: the spin-vs-park
       crossover.
   (c) Hot (one core) vs round-robin placement.
   (d) A contended shared counter and a bounded producer-consumer
       pipeline on the full lock+condvar stack, with conservation
       checks.
   (e) Steady-state allocation audit of the parking-lock fast path
       ([@@sl.zero_alloc]-checked), measured against a bare-atomics
       baseline with an identical event structure.

   Expected shape: spin handoffs are cheap at low contention but burn
   the chip at high contention (poll fraction → 1); park.sw handoffs
   cost the fixed ~4–5k-cycle switch tax regardless; park.mwait matches
   spin handoff latency at low contention at zero steady-state waste,
   paying only the thundering herd (wakes/handoff ≈ contenders) which
   mcs.mwait removes with one targeted wake per handoff. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Lock = Sl_sync.Lock
module Atomics = Sl_sync.Atomics
module Bqueue = Sl_sync.Bqueue
module Contention = Sl_os.Contention
module Histogram = Sl_util.Histogram
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

(* Monitor-table scaling is E9's subject; here the table is oversized so
   lock behavior is isolated from monitor-capacity effects. *)
let params = { p with Params.monitor_capacity_per_core = 1_000_000 }

let cores = 4

(* [n] contenders loop { acquire; critical section; release } until
   [total] critical sections have run globally, so per-thread acquire
   counts measure fairness (every thread also pays exactly one final
   empty acquire to observe termination, a uniform +1 that cancels in
   the spread). *)
let run_point ~kind ~n ~cs ~total ~placement =
  Contention.run ~cores ~placement ~threads:n ~quota:(Shared total) ~section:(Exec cs)
    ~gap:0 kind

let kinds = Lock.all_kinds

let kind_col k = Lock.kind_name k

let poll_fraction o =
  let total = o.Contention.useful +. o.Contention.poll +. o.Contention.overhead in
  if total <= 0.0 then 0.0 else o.Contention.poll /. total

let cycles_per_cs o =
  if o.Contention.sections = 0 then 0.0
  else float_of_int o.Contention.elapsed /. float_of_int o.Contention.sections

(* --- (a) contender sweep --- *)

let contender_counts = [ 1; 16; 64; 250; 1000 ]

let total_for n = match n with 1 -> 400 | 16 -> 600 | 64 -> 800 | 250 -> 600 | _ -> 300

let sweep_cs = 600

let contender_sweep b =
  let outcomes =
    List.map
      (fun n ->
        ( n,
          List.map
            (fun kind ->
              ( kind,
                run_point ~kind ~n ~cs:sweep_cs ~total:(total_for n)
                  ~placement:Contention.Rr ))
            kinds ))
      contender_counts
  in
  let series metric =
    List.map
      (fun (n, per_kind) ->
        (float_of_int n, List.map (fun (_, o) -> metric o) per_kind))
      outcomes
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         (Printf.sprintf
            "E-LOCK a1: handoff latency, release->grant (cycles, mean; cs=%d, rr placement)"
            sweep_cs)
       ~x_label:"contenders"
       ~columns:(List.map kind_col kinds)
       (series (fun o -> Histogram.mean o.Contention.stats.Lock.handoff)));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E-LOCK a2: throughput (cycles per critical section, lower is better)"
       ~x_label:"contenders"
       ~columns:(List.map kind_col kinds)
       (series cycles_per_cs));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E-LOCK a3: spin waste (poll fraction of executed cycles)"
       ~x_label:"contenders"
       ~columns:(List.map kind_col kinds)
       (series poll_fraction));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E-LOCK a4: fairness (max-min acquire spread over contenders)"
       ~x_label:"contenders"
       ~columns:(List.map kind_col kinds)
       (series (fun o ->
            let st = o.Contention.stats in
            if st.Lock.acquires = 0 then 0.0
            else float_of_int (st.Lock.max_count - st.Lock.min_count))));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E-LOCK a5: FIFO distance (mean |grant rank - join rank|)"
       ~x_label:"contenders"
       ~columns:(List.map kind_col kinds)
       (series (fun o -> o.Contention.stats.Lock.fifo_distance_mean)));
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:"E-LOCK a6: wakes per contended handoff (the parking herd)"
       ~x_label:"contenders"
       ~columns:(List.map kind_col kinds)
       (series (fun o ->
            let st = o.Contention.stats in
            if st.Lock.contended = 0 then 0.0
            else float_of_int st.Lock.wakes /. float_of_int st.Lock.contended)));
  outcomes

(* --- (b) critical-section sweep: the spin-vs-park crossover --- *)

let cs_sweep b =
  let lengths = [ 100; 600; 3000; 10_000 ] in
  let rows =
    List.map
      (fun cs ->
        ( float_of_int cs,
          List.map
            (fun kind ->
              cycles_per_cs
                (run_point ~kind ~n:64 ~cs ~total:600 ~placement:Contention.Rr))
            kinds ))
      lengths
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         "E-LOCK b: critical-section sweep at 64 contenders (cycles per critical \
          section)"
       ~x_label:"cs cycles"
       ~columns:(List.map kind_col kinds)
       rows)

(* --- (c) placement --- *)

let placement_compare b =
  let rows =
    List.map
      (fun kind ->
        let point placement = run_point ~kind ~n:64 ~cs:sweep_cs ~total:600 ~placement in
        let hot = point Contention.Hot in
        let rr = point Contention.Rr in
        [
          Tablefmt.String (kind_col kind);
          Tablefmt.Float (cycles_per_cs hot);
          Tablefmt.Float (cycles_per_cs rr);
          Tablefmt.Float (Histogram.mean hot.Contention.stats.Lock.handoff);
          Tablefmt.Float (Histogram.mean rr.Contention.stats.Lock.handoff);
        ])
      kinds
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E-LOCK c: hot (one core) vs round-robin placement, 64 contenders, cs=600"
       ~header:
         [ "lock"; "cyc/cs hot"; "cyc/cs rr"; "handoff hot"; "handoff rr" ]
       rows)

(* --- (d) shared counter + producer-consumer --- *)

let counter_scenario b =
  let threads = 32 and per_thread = 40 in
  let rows =
    List.map
      (fun kind ->
        let o =
          Contention.run ~cores ~placement:Rr ~threads ~quota:(Each per_thread)
            ~section:(Increment 80) ~gap:0 kind
        in
        let st = o.Contention.stats in
        [
          Tablefmt.String (kind_col kind);
          Tablefmt.Int o.Contention.counter;
          Tablefmt.String
            (if o.Contention.counter = threads * per_thread then "yes" else "NO");
          Tablefmt.Int o.Contention.elapsed;
          Tablefmt.Float (Histogram.mean st.Lock.handoff);
          Tablefmt.Int (st.Lock.max_count - st.Lock.min_count);
        ])
      kinds
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         (Printf.sprintf
            "E-LOCK d1: contended shared counter (%d threads x %d increments; conserved = %d)"
            threads per_thread (threads * per_thread))
       ~header:[ "lock"; "counter"; "conserved"; "elapsed"; "handoff"; "spread" ]
       rows)

let producer_consumer b =
  let producers = 4 and consumers = 4 and items = 100 and capacity = 16 in
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores in
  let q = Bqueue.create chip ~capacity in
  let consumed_sum = ref 0L in
  for i = 0 to producers - 1 do
    let th = Chip.add_thread chip ~core:(i mod cores) ~ptid:(i + 1) ~mode:Ptid.User () in
    Chip.attach th (fun t ->
        for k = 1 to items do
          Isa.exec t 150;
          Bqueue.put q t (Int64.of_int ((i * items) + k))
        done);
    Chip.boot th
  done;
  for i = 0 to consumers - 1 do
    let th =
      Chip.add_thread chip ~core:((producers + i) mod cores) ~ptid:(100 + i)
        ~mode:Ptid.User ()
    in
    Chip.attach th (fun t ->
        for _ = 1 to items do
          let v = Bqueue.get q t in
          consumed_sum := Int64.add !consumed_sum v;
          Isa.exec t 150
        done);
    Chip.boot th
  done;
  Sim.run sim;
  let total = producers * items in
  let expected_sum = total * (total + 1) / 2 in
  let st = Lock.stats (Bqueue.lock q) in
  Printf.bprintf b
    "E-LOCK d2: producer-consumer on park.mwait lock + condvars: %d produced, %d \
     consumed, %d in queue (conservation %s), payload sum %Ld (%s), %d cycles, \
     lock handoff mean %.0f\n\n"
    (Bqueue.produced q) (Bqueue.consumed q) (Bqueue.length q)
    (if Bqueue.produced q = Bqueue.consumed q + Bqueue.length q then "holds"
     else "VIOLATED")
    !consumed_sum
    (if !consumed_sum = Int64.of_int expected_sum then "complete" else "INCOMPLETE")
    (Sim.time sim)
    (Histogram.mean st.Lock.handoff)

(* --- (e) steady-state allocation audit --- *)

(* One thread, [rounds] uncontended acquire/release pairs, measured
   against a baseline loop of the same atomics (one CAS + one store per
   round) on a bare Memory word.  Both loops execute the same number of
   simulated events, so the allocation delta isolates the lock layer's
   own per-acquire allocation — which must be zero in steady state (the
   fast path is [@@sl.zero_alloc]-checked; see lib/staticcheck). *)
let alloc_audit b =
  let rounds = 2000 in
  (* The measured window starts after a warmup pair, inside the thread
     body, so chip/lock construction and slot registration stay out of
     the numbers; only the steady-state loop (including the engine
     events it schedules) is counted, in minor words.
     [Gc.minor] empties the minor heap right before the window opens, so
     that no window depends on the GC phase the surrounding tables left
     behind: the window allocates a few thousand words, far below the
     minor-heap size, and no collection lands inside it.  [step chip]
     builds what one side needs and returns its per-round step. *)
  let audit_run step =
    let sim = Sim.create () in
    let chip = Chip.create sim params ~cores:1 in
    let step = step chip in
    let words = ref 0.0 in
    let th = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.User () in
    Chip.attach th (fun t ->
        step t;
        Gc.minor ();
        let w0 = Gc.minor_words () in
        for _ = 1 to rounds do
          step t
        done;
        words := Gc.minor_words () -. w0);
    Chip.boot th;
    Sim.run sim;
    !words
  in
  let lock_run () =
    audit_run (fun chip ->
        let lock = Lock.create chip Lock.Park_mwait in
        fun t ->
          Lock.acquire lock t;
          Lock.release lock t)
  in
  let baseline_run () =
    audit_run (fun chip ->
        let word = Memory.alloc (Chip.memory chip) 1 in
        fun t ->
          ignore (Atomics.cas chip t word ~expect:0L ~desired:1L : bool);
          Atomics.write chip t word 0L)
  in
  (* A GC phantom can only inflate a window, while a real per-acquire
     allocation shows in every window: each side reports the least of
     three measured windows. *)
  let least_of_three run =
    let w1 = run () in
    let w2 = run () in
    let w3 = run () in
    Float.min w1 (Float.min w2 w3)
  in
  (* Interleave a throwaway pass first so both measured passes run with
     equally warm code paths. *)
  ignore (baseline_run () : float);
  ignore (lock_run () : float);
  let lock_words = least_of_three lock_run in
  let base_words = least_of_three baseline_run in
  let delta = (lock_words -. base_words) /. float_of_int rounds in
  Printf.bprintf b
    "E-LOCK e: lock-layer allocation %+.3f words/acquire over %d uncontended \
     acquire/release pairs vs bare-atomics baseline (fast path \
     [@@sl.zero_alloc]-checked): %s\n\n"
    delta rounds
    (if Float.abs delta < 0.01 then "zero-alloc holds" else "ALLOCATES")

(* --- acceptance summary --- *)

let acceptance b outcomes =
  (* mwait parking within 2x of MCS spin handoff at low contention, and
     FIFO locks within the FIFO model's fairness bound (spread <= 1 plus
     the uniform exit acquire), for every measured contender count. *)
  List.iter
    (fun (n, per_kind) ->
      if n > 1 then begin
        let find k = (List.assoc k per_kind).Contention.stats in
        let park = Histogram.mean (find Lock.Park_mwait).Lock.handoff in
        let mcs = Histogram.mean (find Lock.Mcs_spin).Lock.handoff in
        let spread k =
          let st = find k in
          st.Lock.max_count - st.Lock.min_count
        in
        let ticket_spread = spread Lock.Ticket in
        let mcs_spread = spread Lock.Mcs_spin in
        Printf.bprintf b
          "E-LOCK accept @%4d contenders: park.mwait handoff %.0f vs mcs.spin %.0f \
           (%.2fx, %s); spread ticket=%d mcs=%d (FIFO bound 1: %s)\n"
          n park mcs
          (if mcs > 0.0 then park /. mcs else 0.0)
          (if n > 64 || park <= 2.0 *. mcs then "ok at low contention"
           else "EXCEEDS 2x")
          ticket_spread mcs_spread
          (if ticket_spread <= 1 && mcs_spread <= 1 then "ok" else "EXCEEDED")
      end)
    outcomes;
  Buffer.add_char b '\n'

let run b =
  let outcomes = contender_sweep b in
  cs_sweep b;
  placement_compare b;
  counter_scenario b;
  producer_consumer b;
  alloc_audit b;
  acceptance b outcomes
