(* Performance accounting for the bench harness (see ANALYSIS.md,
   "Performance accounting").

   One record per experiment run: wall-clock seconds, simulation events
   executed (summed over every Sim world the experiment built),
   throughput, words allocated ([Sl_util.Alloc_meter]), and GC pressure
   (minor/major collections during the run, top-of-heap words after it).
   The harness writes them as a JSON file (via -perf-out) so successive
   PRs accumulate a perf trajectory that CI can diff.  With [-repeat N]
   each experiment runs N times and the fastest run's numbers are kept,
   so committed numbers are stable on noisy containers. *)

module Json = Sl_util.Json

type record = {
  id : string;
  wall_s : float;
  events : int;
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

let events_per_s r =
  if r.wall_s > 0.0 then float_of_int r.events /. r.wall_s else 0.0

let record_json r =
  Json.obj
    [
      ("id", Json.quote r.id);
      ("wall_s", Json.float r.wall_s);
      ("events", string_of_int r.events);
      ("events_per_s", Json.float (events_per_s r));
      ("alloc_words", Json.float r.alloc_words);
      ("minor_collections", string_of_int r.minor_collections);
      ("major_collections", string_of_int r.major_collections);
      ("top_heap_words", string_of_int r.top_heap_words);
    ]

let suite_json ~jobs ~repeat ~total_wall_s records =
  Json.obj
    [
      ("schema", Json.quote "switchless-bench-perf/2");
      ("jobs", string_of_int jobs);
      ("repeat", string_of_int repeat);
      ("domains_available", string_of_int (Domain.recommended_domain_count ()));
      ("total_wall_s", Json.float total_wall_s);
      ("experiments", Json.arr (List.map record_json records));
    ]

let write ~path ~jobs ~repeat ~total_wall_s records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (suite_json ~jobs ~repeat ~total_wall_s records);
      output_char oc '\n')
