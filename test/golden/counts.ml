(* The counts golden: a bench/main.exe -perf-out file projected onto one
   line per experiment, "id events minor_words".  Both counts repeat
   exactly for a fixed -j 1 invocation, so the golden rules diff them
   like stdout.  Minor words depend on the compiler and on the build
   profile, so the header names the OCaml version and the profile that
   baked them.  Under another version the words are copied from the
   expected file ("-" where it has none) and only events are compared.
   Under another profile the run is refused (exit 1, one line naming
   both): a dev build's words differ, and no word of it is a regression.

   Usage: counts.exe PERF.json [EXPECTED] *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The perf file's records are flat objects that list id, events and
   minor_words in this order (bench/perf.ml). *)
let record =
  Str.regexp
    {|"id":"\([^"]*\)"[^}]*"events":\([0-9]+\)[^}]*"minor_words":\([0-9]+\)|}

let records text =
  let rec go pos acc =
    match Str.search_forward record text pos with
    | exception Not_found -> List.rev acc
    | _ ->
      let field i = Str.matched_group i text in
      go (Str.match_end ()) ((field 1, field 2, field 3) :: acc)
  in
  go 0 []

(* The profile bench/main.exe was built under (bench/perf.ml). *)
let profile text =
  match Str.search_forward (Str.regexp {|"profile":"\([^"]*\)"|}) text 0 with
  | _ -> Str.matched_group 1 text
  | exception Not_found -> "unknown"

(* The expected file's version, its profile and its words by id; None
   when it has no header yet. *)
let expected path =
  let lines = String.split_on_char '\n' (read_file path) in
  let words_by_id line =
    match String.split_on_char ' ' line with [ id; _; w ] -> Some (id, w) | _ -> None
  in
  Scanf.sscanf_opt (List.hd lines) "# id events minor_words (OCaml %s@, profile %s@)"
    (fun version profile -> (version, profile, List.filter_map words_by_id (List.tl lines)))

let () =
  let perf, expected =
    match Sys.argv with
    | [| _; perf |] -> (perf, None)
    | [| _; perf; exp |] -> (perf, expected exp)
    | _ ->
      prerr_endline "usage: counts.exe PERF.json [EXPECTED]";
      exit 2
  in
  let text = read_file perf in
  let built = profile text in
  (match expected with
  | Some (_, want, _) when want <> built ->
    Printf.eprintf "counts: %s was built under profile %s, the expected counts under %s\n"
      perf built want;
    exit 1
  | _ -> ());
  let version, words_of =
    match expected with
    | Some (version, _, words) when version <> Sys.ocaml_version ->
      (version, fun id _ -> Option.value (List.assoc_opt id words) ~default:"-")
    | _ -> (Sys.ocaml_version, fun _ w -> w)
  in
  Printf.printf "# id events minor_words (OCaml %s, profile %s)\n" version built;
  List.iter
    (fun (id, events, words) -> Printf.printf "%s %s %s\n" id events (words_of id words))
    (records text)
