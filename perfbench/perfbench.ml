(* The repository benchmark: one workload per process, measured end to
   end with tracing off, or layer by layer with tracing on.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--fault SPEC]

   A round runs every world of the workload once, each to completion.
   After one warm-up round, rounds repeat until [--seconds] have passed
   (at least [min_rounds]).  Host times are medians over rounds, taken
   per world and then summed, so one slow round does not move them.
   They are also scaled to nominal host speed by the reference kernel
   of [Calib], timed before every measured world: the host's own speed
   drifts more than any bound a regression check could use.  The raw
   figures and the slowdown are printed beside the scaled ones.

   --trace 0 reports the end-to-end metrics: ops_per_s (ops per host
   second after set-up), setup_s, alloc_words_per_op and peak_heap_mb.

   --trace 1 splits the time in two.  The first half runs untraced, as
   a reference; the second half runs with the chip probe, NIC capture
   and the benchmark's own spans on, and must reproduce the same
   simulated fingerprint.  A last round after [Hashtbl.randomize ()]
   reports whether the results depend on the hash seed.

   --fault SPEC runs every round under an [Sl_fault] plan (spec syntax
   of [SWITCHLESS_FAULTS]) and reports the end-to-end metrics; it exists
   for the benchmark's self-test, which expects the oracle to fail.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  The process exits 1 when any
   correctness check fails. *)

module Fault = Sl_fault.Fault
module Histogram = Sl_util.Histogram

let min_rounds = 3

type round = {
  samples : Obs.sample list;
  scale : float list;
      (** Per world, [Calib.nominal_ns] over the kernel time measured just
          before it: a host time times this is the time at nominal host
          speed. *)
  fingerprint : string;
  sojourn_p50 : int;
  sojourn_p99 : int;
}

let run_round ?(calibrate = true) obs ~workload ~spans ~plan ~seed =
  let thunks = Workloads.round workload ~spans ~faulty:(plan <> None) ~seed in
  let go () =
    List.map
      (fun f ->
        (* On a collected heap, so the last world's garbage does not
           slow the kernel down. *)
        let scale =
          if calibrate then begin
            Gc.full_major ();
            float_of_int Calib.nominal_ns /. float_of_int (Calib.measure ())
          end
          else 1.0
        in
        (scale, Obs.observe obs f))
      thunks
  in
  let scale, samples =
    List.split (match plan with None -> go () | Some p -> Fault.with_ambient (Fault.create p) go)
  in
  let text = String.concat "\n" (List.map (fun s -> s.Obs.digest_text) samples) in
  let sojourns = Histogram.create () in
  List.iter (Histogram.merge_into ~dst:sojourns) !Workloads.sojourns;
  {
    samples;
    scale;
    fingerprint = Digest.to_hex (Digest.string text);
    sojourn_p50 = Histogram.quantile sojourns 0.5;
    sojourn_p99 = Histogram.quantile sojourns 0.99;
  }

(* Warm-up round, then measured rounds until [budget_s] has passed.
   Also returns the top of the heap after the warm-up round: the
   workload's first pass in a fresh process, which repeats exactly,
   where the peak after a varying number of rounds does not.  The
   warm-up runs no reference kernel, so the peak is the simulator's
   own. *)
let run_phase ~traced ~workload ~plan ~seed ~budget_s =
  let obs = Obs.install ~traced in
  let round ?calibrate () = run_round ?calibrate obs ~workload ~spans:traced ~plan ~seed in
  ignore (round ~calibrate:false () : round);
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let t0 = Obs.now_ns () in
  let budget_ns = int_of_float (budget_s *. 1e9) in
  let rec loop acc n =
    if n >= min_rounds && Obs.now_ns () - t0 >= budget_ns then List.rev acc
    else loop (round () :: acc) (n + 1)
  in
  let rounds = loop [] 0 in
  Obs.uninstall obs;
  (heap_words, rounds)

(* --- statistics over rounds ------------------------------------------- *)

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let run_ns s = float_of_int (s.Obs.call_ns - s.Obs.setup_ns)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let div a b = if b = 0.0 then 0.0 else a /. b

(* Per world: the median over rounds of [f], summed over the worlds
   that [keep] selects.  Rounds hold the same worlds in the same order.
   [scaled] first brings each sample to nominal host speed. *)
let per_world_median ?(keep = fun _ -> true) ~scaled rounds f =
  let value r i =
    let x = f (List.nth r.samples i) in
    if scaled then x *. List.nth r.scale i else x
  in
  match rounds with
  | [] -> 0.0
  | first :: _ ->
    List.mapi (fun i s -> (i, s)) first.samples
    |> List.filter (fun (_, s) -> keep s)
    |> fsum (fun (i, _) -> median (List.map (fun r -> value r i) rounds))

let round_ops r = fsum (fun s -> float_of_int s.Obs.w.Obs.ops) r.samples
let round_events r = fsum (fun s -> float_of_int s.Obs.events) r.samples

(* How much slower than nominal the host ran, over the whole phase. *)
let slowdown rounds = div 1.0 (median (List.concat_map (fun r -> r.scale) rounds))

let ops_per_s ?(scaled = true) rounds =
  match rounds with
  | [] -> 0.0
  | r :: _ -> div (round_ops r) (per_world_median ~scaled rounds run_ns /. 1e9)

let setup_s ?(scaled = true) rounds =
  per_world_median ~scaled rounds (fun s -> float_of_int s.Obs.setup_ns) /. 1e9

let alloc_words_per_op rounds =
  median (List.map (fun r -> div (fsum (fun s -> s.Obs.alloc_words) r.samples) (round_ops r)) rounds)

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* The fingerprint as a number: its first 52 bits, exact in a double. *)
let fingerprint_value hex = float_of_int (int_of_string ("0x" ^ String.sub hex 0 13))

(* --- correctness -------------------------------------------------------- *)

type verdict = { attempted : int; failed : int; problems : string list }

(* Every world must pass its oracle, and must render the same simulated
   statistics and execute the same number of events in every round. *)
let judge rounds =
  let reference = match rounds with r :: _ -> r.samples | [] -> [] in
  List.fold_left
    (fun v r ->
      List.fold_left2
        (fun v s ref_s ->
          let w = s.Obs.w in
          let problem =
            if not w.Obs.ok then Some "oracle failed"
            else if s.Obs.digest_text <> ref_s.Obs.digest_text then Some "fingerprint differs"
            else if s.Obs.events <> ref_s.Obs.events then Some "event count differs"
            else None
          in
          match problem with
          | None -> { v with attempted = v.attempted + w.Obs.attempted }
          | Some p ->
            {
              attempted = v.attempted + w.Obs.attempted;
              failed = v.failed + w.Obs.attempted;
              problems = Printf.sprintf "%s: %s" w.Obs.label p :: v.problems;
            })
        v r.samples reference)
    { attempted = 0; failed = 0; problems = [] }
    rounds

(* --- output ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~verdict metrics =
  List.iter (fun x -> Printf.printf "%-36s %20s %s\n" x.name (json_number x.value) x.unit_) metrics;
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) (List.rev verdict.problems);
  Printf.printf "error_rate %s (%d failed / %d attempted ops)\n"
    (json_number (div (float_of_int verdict.failed) (float_of_int verdict.attempted)))
    verdict.failed verdict.attempted;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (verdict.failed = 0 && verdict.problems = [])
    verdict.attempted verdict.failed body

(* --- the two modes ------------------------------------------------------ *)

let end_to_end ~workload ~plan ~seed ~seconds =
  let heap_words, rounds = run_phase ~traced:false ~workload ~plan ~seed ~budget_s:seconds in
  let fp = match rounds with r :: _ -> r.fingerprint | [] -> "0000000000000" in
  ( judge rounds,
    [
      m "ops_per_s" "1/s" (ops_per_s rounds);
      m "setup_s" "s" (setup_s rounds);
      m "alloc_words_per_op" "words/op" (alloc_words_per_op rounds);
      m "peak_heap_mb" "MB" (mb_of_words heap_words);
      m "engine.events" "count" (match rounds with r :: _ -> round_events r | [] -> 0.0);
      m "raw.ops_per_s" "1/s" (ops_per_s ~scaled:false rounds);
      m "raw.setup_s" "s" (setup_s ~scaled:false rounds);
      m "host.slowdown" "ratio" (slowdown rounds);
      m "sim.fingerprint" "digest" (fingerprint_value fp);
    ] )

let layered ~workload ~seed ~seconds =
  let _, plain = run_phase ~traced:false ~workload ~plan:None ~seed ~budget_s:(seconds /. 2.0) in
  let _, traced = run_phase ~traced:true ~workload ~plan:None ~seed ~budget_s:(seconds /. 2.0) in
  Hashtbl.randomize ();
  let obs = Obs.install ~traced:false in
  let shuffled = run_round ~calibrate:false obs ~workload ~spans:false ~plan:None ~seed in
  Obs.uninstall obs;
  let verdict = judge (plain @ traced) in
  let a = List.hd plain and b = List.hd traced in
  let ops = round_ops a and events = round_events a in
  (* Simulated counts, from the first traced round. *)
  let model = Obs.Tally.create () in
  List.iter
    (fun s ->
      Obs.Tally.add_all model s.Obs.chip_model;
      Obs.Tally.add_all model s.Obs.w.Obs.model)
    b.samples;
  let get = Obs.Tally.get model in
  let layer_of s = s.Obs.w.Obs.layer in
  (* Host time per op of one layer: its worlds' whole calls, traced. *)
  let span_metrics key =
    let keep s = layer_of s = key in
    let sel = List.filter keep b.samples in
    let lops = fsum (fun s -> float_of_int s.Obs.w.Obs.ops) sel in
    let levents = fsum (fun s -> float_of_int s.Obs.events) sel in
    let ns = per_world_median ~keep ~scaled:true traced (fun s -> float_of_int s.Obs.call_ns) in
    [
      m (key ^ ".ns_per_op") "ns/op" (div ns lops);
      m (key ^ ".events_per_op") "events/op" (div levents lops);
    ]
  in
  (* A span total inside the worlds, at nominal host speed, per unit
     counted by [den]; the median over traced rounds. *)
  let host_ratio num den =
    let host key s = Option.value ~default:0.0 (List.assoc_opt key s.Obs.w.Obs.host) in
    median
      (List.map
         (fun r ->
           let spans = fsum (fun (k, s) -> k *. host num s) (List.combine r.scale r.samples) in
           div spans (fsum (host den) r.samples))
         traced)
  in
  let minor = median (List.map (fun r -> fsum (fun s -> float_of_int s.Obs.minor) r.samples) plain) in
  let major = median (List.map (fun r -> fsum (fun s -> float_of_int s.Obs.major) r.samples) plain) in
  let words = median (List.map (fun r -> fsum (fun s -> s.Obs.alloc_words) r.samples) plain) in
  let wakes = [ "rf"; "l2"; "l3"; "dram" ] in
  let all_wakes = fsum (fun t -> get ("state_store." ^ t ^ "_wakes")) wakes in
  let work = [ "useful"; "poll"; "overhead" ] in
  let all_work = fsum (fun k -> get ("smt_core." ^ k ^ "_cycles")) work in
  let count name = m name "count" (get name) in
  let cycles name = m name "cycles" (get name) in
  let metrics =
    [
      m "engine.events" "count" events;
      m "engine.events_per_op" "events/op" (div events ops);
      m "engine.ns_per_event" "ns/event" (div (per_world_median ~scaled:true plain run_ns) events);
      m "engine.worlds" "count" (fsum (fun s -> float_of_int s.Obs.worlds) a.samples);
      m "gc.words_per_event" "words/event" (div words events);
      m "gc.minor_collections" "count" minor;
      m "gc.major_collections" "count" major;
    ]
    @ List.concat_map span_metrics (List.map Workloads.lock_layer Sl_sync.Lock.all_kinds)
    @ List.concat_map span_metrics Workloads.io_layers
    @ [
        m "chip.doorbell_ns" "ns" (host_ratio "chip.doorbell_ns" "chip.doorbells");
        m "chip.add_thread_us" "us" (host_ratio "chip.add_thread_ns" "chip.added_threads" /. 1000.0);
        m "trace.overhead" "ratio" (div (ops_per_s traced) (ops_per_s plain));
        count "chip.threads";
        count "chip.monitor_arms";
        count "chip.mwait_parks";
        count "chip.mwait_wakes";
        count "chip.mwait_immediate";
        m "chip.latch_ratio" "ratio"
          (div (get "chip.mwait_immediate") (get "chip.mwait_immediate" +. get "chip.mwait_parks"));
        count "chip.starts";
        count "chip.state_changes";
        count "memory.writes";
      ]
    @ List.map (fun t -> count ("state_store." ^ t ^ "_wakes")) wakes
    @ [
        count "state_store.demotions";
        m "state_store.rf_hit_ratio" "ratio" (div (get "state_store.rf_wakes") all_wakes);
      ]
    @ List.map (fun k -> cycles ("smt_core." ^ k ^ "_cycles")) work
    @ [
        m "smt_core.useful_ratio" "ratio" (div (get "smt_core.useful_cycles") all_work);
        count "sync.acquires";
        count "sync.contended";
        count "sync.parks";
        count "sync.wakes";
        m "sync.wakes_per_handoff" "wakes/handoff" (div (get "sync.wakes") (get "sync.contended"));
        m "sync.handoff_mean_cycles" "cycles" (div (get "sync.handoff_cycles") (get "sync.handoffs"));
        count "nic.delivered";
        count "nic.dropped";
        count "workload.requests";
        count "workload.slo_miss";
        m "workload.sojourn_p50_cycles" "cycles" (float_of_int b.sojourn_p50);
        m "workload.sojourn_p99_cycles" "cycles" (float_of_int b.sojourn_p99);
        cycles "sim.cycles";
        m "sim.fingerprint" "digest" (fingerprint_value a.fingerprint);
        m "sim.hash_seed_stable" "bool" (if shuffled.fingerprint = a.fingerprint then 1.0 else 0.0);
      ]
  in
  (verdict, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let fault = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N  seed every simulated input is derived from");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--fault", Arg.Set_string fault, "SPEC  run under an Sl_fault plan");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  let plan =
    if !fault = "" then None
    else
      match Fault.parse_spec !fault with
      | Ok p -> Some p
      | Error e ->
        prerr_endline ("perfbench: bad --fault spec: " ^ e);
        exit 2
  in
  let seed = Int64.of_int !seed in
  let verdict, metrics =
    if !trace = 1 && plan = None then layered ~workload:!workload ~seed ~seconds:!seconds
    else end_to_end ~workload:!workload ~plan ~seed ~seconds:!seconds
  in
  print_result ~verdict metrics;
  exit (if verdict.failed = 0 && verdict.problems = [] then 0 else 1)
