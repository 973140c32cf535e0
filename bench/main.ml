(* Benchmark harness: regenerates every table and figure of the
   reproduction (see DESIGN.md §3 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured notes).

   Usage:
     dune exec bench/main.exe                    # all experiments
     dune exec bench/main.exe -- e3 e7           # a subset
     dune exec bench/main.exe -- micro           # microbenchmarks (opt-in)
     dune exec bench/main.exe -- -j 4 e1 e2 e7   # fan out over 4 domains
     dune exec bench/main.exe -- -j auto         # one domain per core
     dune exec bench/main.exe -- -perf-out run.perf.json

   With [-j N] experiments run on N worker domains.  Each experiment
   prints into the buffer its job hands it, and the buffers are printed
   in the canonical sequential order, so stdout is byte-identical at
   every -j level; only the [id done in Xs] timing lines differ, and
   those go to stderr.  [-j 1] (the default) spawns no domains at all
   and runs everything in this one. *)

let experiments =
  [
    ("t1", "Table 1: thread descriptor table semantics", Exp_t1.run);
    ("e1", "No more interrupts: wakeup latency", Exp_e1.run);
    ("e2", "Fast I/O without polling: load sweep", Exp_e2.run);
    ("e3", "Exception-less syscalls: cycles per call", Exp_e3.run);
    ("e4", "Kernel FP/vector state tax", Exp_e4.run);
    ("e5", "Microkernel IPC and container proxies", Exp_e5.run);
    ("e6", "Untrusted hypervisors: VM-exit cost", Exp_e6.run);
    ("e7", "Thread-per-request tail latency", Exp_e7.run);
    ("e8", "Design space: thread-state storage", Exp_e8.run);
    ("e9", "Monitor scalability", Exp_e9.run);
    ("e10", "Consecutive exceptions: handler chains", Exp_e10.run);
    ("e11", "Ablation: priorities for time-critical threads", Exp_e11.run);
    ("e12", "Ablation: hardware dispatch policy vs state hierarchy", Exp_e12.run);
    ("e13", "Ablation: VM world switches by start/stop", Exp_e13.run);
    ("e14", "Ablation: preemptive scheduling via start/stop", Exp_e14.run);
    ("e15", "Substrate: interrupt-free reliable transport", Exp_e15.run);
    ("e16", "Load sweep: tail latency and saturation knees", Exp_e16.run);
    ("elock", "E-LOCK: lock algorithms on hardware threads", Exp_lock.run);
    ("r1", "Robustness: chaos suite under fault injection", Exp_r1.run);
    ("micro", "Bechamel microbenchmarks", Microbench.run);
  ]

(* SWITCHLESS_SANITIZE=1 runs every experiment under the race detector
   and invariant sanitizers (lib/analysis); any finding fails the run.
   Default off so benchmark numbers are taken on uninstrumented chips. *)
let sanitize = Sys.getenv_opt "SWITCHLESS_SANITIZE" = Some "1"

(* SWITCHLESS_FAULTS=<spec> (see Sl_fault.Fault.parse_spec) injects the
   given fault plan into every chip and device an experiment creates.
   Each experiment gets a fresh injector built from the same plan, so its
   fault schedule does not depend on which experiments ran before it.
   Only meaningful for runs whose wakeup paths are hardened (r1 by
   design); unhardened pollers may legitimately never terminate when
   their packets are injected away. *)
let fault_plan =
  match Sys.getenv_opt "SWITCHLESS_FAULTS" with
  | None -> None
  | Some spec -> (
    match Sl_fault.Fault.parse_spec spec with
    | Ok plan -> Some plan
    | Error msg ->
      Printf.eprintf "SWITCHLESS_FAULTS: %s\n" msg;
      exit 2)

(* The experiment's sims are collected so abandoned processes can be
   counted afterwards: [stuck] includes servers parked by design,
   [suspects] is the subset that looks like a genuine deadlock.  Counts
   only, so the trailer stays one short line however many threads an
   experiment parks. *)
let report_abandoned b id sims =
  let total f = List.fold_left (fun acc s -> acc + List.length (f s)) 0 sims in
  let stuck_total = total Sl_engine.Sim.stuck in
  if stuck_total > 0 then
    Printf.bprintf b "{\"experiment\":%S,\"stuck\":%d,\"suspects\":%d}\n" id
      stuck_total (total Sl_engine.Sim.suspects)

(* The recovery counters of the experiment's sims (Sim.count): mwait→polling
   fallbacks, channel retries, watchdog nudges, crash restarts/requeues.
   Empty (no line at all) when nothing had to recover, which keeps the
   fault-free stdout unchanged. *)
let report_recovery b id sims =
  match Sl_engine.Sim.counts sims with
  | [] -> ()
  | sites ->
    Printf.bprintf b "{\"experiment\":%S,\"recovery\":{%s}}\n" id
      (String.concat ","
         (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n) sites))

(* Everything the scheduler needs back from one experiment, wherever it
   ran.  [output] is everything the experiment printed into its buffer;
   [failure] carries an escaped exception so it re-raises at the
   experiment's canonical position in the output order, after its
   partial output is printed. *)
type job_result = {
  perf : Perf.record;
  output : string;
  sanitizer_failed : bool;
  failure : (exn * Printexc.raw_backtrace) option;
}

let run_job (id, title, run) =
  let b = Buffer.create 4096 in
  let sanitizer_failed = ref false in
  let sims = ref [] in
  let body () =
    Printf.bprintf b "---------------------------------------------------------------\n";
    Printf.bprintf b "%s — %s\n" (String.uppercase_ascii id) title;
    Printf.bprintf b "---------------------------------------------------------------\n";
    (* The machine-readable header records everything needed to replay this
       run: sanitizer state and the canonical fault spec, seed included. *)
    Printf.bprintf b "{\"experiment\":%S,\"sanitize\":%b,\"faults\":%s}\n" id sanitize
      (match fault_plan with
      | None -> "null"
      | Some plan -> Printf.sprintf "%S" (Sl_fault.Fault.to_spec plan));
    (* r1 manages its own sanitizers, fault plans and recovery counts
       (each scenario gets a dedicated injector, asserts on the findings
       itself and prints its recovery sites in its row). *)
    let self_managed = id = "r1" in
    let f () = run b in
    let f =
      if not (sanitize && not self_managed) then f
      else fun () ->
        let (), findings = Sl_analysis.Analysis.with_all f in
        Printf.bprintf b "[%s sanitizers: %s]\n" id
          (Sl_analysis.Report.summary findings);
        if findings <> [] then begin
          sanitizer_failed := true;
          List.iter
            (fun fg ->
              Format.kasprintf (Buffer.add_string b) "%a@." Sl_analysis.Report.pp fg)
            findings
        end
    in
    let f =
      match fault_plan with
      | Some plan when not self_managed ->
        fun () -> Sl_fault.Fault.with_ambient (Sl_fault.Fault.create plan) f
      | _ -> f
    in
    Sl_engine.Sim.observing ~key:"bench"
      (function Sl_engine.Sim.World s -> sims := s :: !sims | _ -> ())
      f;
    report_abandoned b id (List.rev !sims);
    if not self_managed then report_recovery b id !sims
  in
  (* Each experiment starts from a compacted heap, so its wall time and
     collections do not carry major work left by the experiments before
     it.  Outside the timed window; it moves no minor word. *)
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  (* Minor words repeat exactly for a fixed -j 1 invocation. *)
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let failure =
    match body () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = int_of_float (Gc.minor_words () -. minor0) in
  let gc1 = Gc.quick_stat () in
  let events =
    List.fold_left (fun acc s -> acc + Sl_engine.Sim.events_processed s) 0 !sims
  in
  {
    perf =
      {
        Perf.id;
        wall_s;
        events;
        minor_words;
        minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
        major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      };
    output = Buffer.contents b;
    sanitizer_failed = !sanitizer_failed;
    failure;
  }

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N|auto] [-perf-out FILE] [-micro-out FILE]\n\
\       [experiment ids...]\n";
  exit 2

(* -j 0 / -j auto asks the runtime; explicit requests are honoured up to
   a hard cap so a typo cannot fork-bomb the host. *)
let parse_jobs = function
  | "auto" | "0" -> Domain.recommended_domain_count ()
  | s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> min n 16
    | _ ->
      Printf.eprintf "-j expects a positive count or 'auto'\n";
      exit 2)

let () =
  let jobs = ref 1 in
  let perf_out = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "-j" :: v :: rest ->
      jobs := parse_jobs v;
      parse rest
    | "-perf-out" :: path :: rest ->
      perf_out := Some path;
      parse rest
    | "-micro-out" :: path :: rest ->
      Microbench.json_out := Some path;
      parse rest
    | ("-j" | "-perf-out" | "-micro-out" | "-h" | "-help" | "--help") :: _ ->
      usage ()
    | id :: rest ->
      ids := id :: !ids;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let requested =
    match List.rev !ids with
    | [] ->
      (* The default suite is the byte-stable surface CI diffs across -j
         levels and commits; micro prints wall-clock numbers, so it only
         runs when named explicitly. *)
      List.filter_map
        (fun (id, _, _) -> if id = "micro" then None else Some id)
        experiments
    | l -> l
  in
  let items =
    List.map
      (fun id ->
        match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
        | Some exp -> exp
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat ", " (List.map (fun (eid, _, _) -> eid) experiments));
          exit 1)
      requested
    |> Array.of_list
  in
  let t0 = Unix.gettimeofday () in
  let records = ref [] in
  let sanitizer_failures = ref 0 in
  Sl_util.Parallel.run_ordered ~jobs:!jobs run_job items
    ~consume:(fun _ r ->
      print_string r.output;
      flush stdout;
      (* Timing is the one nondeterministic line, so it goes to stderr;
         stdout keeps the blank separator and stays byte-stable. *)
      Printf.eprintf "[%s done in %.1fs]\n" r.perf.id r.perf.wall_s;
      flush stderr;
      print_newline ();
      if r.sanitizer_failed then incr sanitizer_failures;
      records := r.perf :: !records;
      match r.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
  let total_wall_s = Unix.gettimeofday () -. t0 in
  (* The peak is the process's running maximum, so it is read once, after
     every experiment ran. *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Option.iter
    (fun path ->
      Perf.write ~path ~jobs:!jobs ~total_wall_s ~top_heap_words (List.rev !records))
    !perf_out;
  if !sanitizer_failures > 0 then begin
    Printf.eprintf "sanitizers reported findings in %d experiment(s)\n"
      !sanitizer_failures;
    exit 1
  end
