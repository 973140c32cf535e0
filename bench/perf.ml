(* Performance accounting for the bench harness (see ANALYSIS.md,
   "Performance accounting").

   One record per experiment run: wall-clock seconds, simulation events
   executed (summed over every Sim world the experiment built), minor
   words allocated and GC pressure (minor/major collections during the
   run).  The harness
   writes them as a JSON file (via -perf-out), with the process's peak
   heap after the whole run and the build profile, for scripts/ab.py and
   the counts golden in test/golden. *)

module Json = Sl_util.Json

type record = {
  id : string;
  wall_s : float;
  events : int;
  minor_words : int;
  minor_collections : int;
  major_collections : int;
}

let record_json r =
  Json.obj
    [
      ("id", Json.quote r.id);
      ("wall_s", Json.float r.wall_s);
      ("events", string_of_int r.events);
      ("minor_words", string_of_int r.minor_words);
      ("minor_collections", string_of_int r.minor_collections);
      ("major_collections", string_of_int r.major_collections);
    ]

let suite_json ~jobs ~total_wall_s ~top_heap_words records =
  Json.obj
    [
      ("schema", Json.quote "switchless-bench-perf/5");
      ("profile", Json.quote Build_profile.name);
      ("jobs", string_of_int jobs);
      ("domains_available", string_of_int (Domain.recommended_domain_count ()));
      ("total_wall_s", Json.float total_wall_s);
      ("top_heap_words", string_of_int top_heap_words);
      ("experiments", Json.arr (List.map record_json records));
    ]

let write ~path ~jobs ~total_wall_s ~top_heap_words records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (suite_json ~jobs ~total_wall_s ~top_heap_words records);
      output_char oc '\n')
