(* The counts golden: a bench/main.exe -perf-out file projected onto one
   line per experiment, "id events minor_words".  Both counts repeat
   exactly for a fixed -j 1 invocation, so the golden rules diff them
   like stdout.  Minor words depend on the compiler, so the header names
   the OCaml version that baked them; under another version the words are
   copied from the expected file ("-" where it has none) and only events
   are compared.

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

(* The expected file's version and its words by id; None when it has no
   header yet. *)
let expected path =
  let lines = String.split_on_char '\n' (read_file path) in
  let words_by_id line =
    match String.split_on_char ' ' line with [ id; _; w ] -> Some (id, w) | _ -> None
  in
  Scanf.sscanf_opt (List.hd lines) "# id events minor_words (OCaml %s@)" (fun version ->
      (version, List.filter_map words_by_id (List.tl lines)))

let () =
  let perf, expected =
    match Sys.argv with
    | [| _; perf |] -> (perf, None)
    | [| _; perf; exp |] -> (perf, expected exp)
    | _ ->
      prerr_endline "usage: counts.exe PERF.json [EXPECTED]";
      exit 2
  in
  let version, words_of =
    match expected with
    | Some (version, words) when version <> Sys.ocaml_version ->
      (version, fun id _ -> Option.value (List.assoc_opt id words) ~default:"-")
    | _ -> (Sys.ocaml_version, fun _ w -> w)
  in
  Printf.printf "# id events minor_words (OCaml %s)\n" version;
  List.iter
    (fun (id, events, words) -> Printf.printf "%s %s %s\n" id events (words_of id words))
    (records (read_file perf))
