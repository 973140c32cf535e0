type unit_ = {
  source : string;
  structure : Typedtree.structure;
  interface : bool;
}

(* The typedtrees in a .cmt carry envs reduced to their summaries;
   Envaux reconstructs them on demand, which loads dependency .cmis
   through the global Load_path.  The cmt records the load path its
   compilation used — relative to the build-context root, which is not
   necessarily our cwd (the check alias runs from the context root, a
   test runs from its own directory, a user runs from the workspace
   root).  [cmt_sourcefile] is relative to the same root, so the first
   candidate prefix under which it exists locates the root. *)
let context_candidates =
  [
    Filename.concat "_build" "default";
    Filename.current_dir_name;
    Filename.parent_dir_name;
    Filename.concat Filename.parent_dir_name Filename.parent_dir_name;
    Filename.concat
      (Filename.concat Filename.parent_dir_name Filename.parent_dir_name)
      Filename.parent_dir_name;
  ]

let loadpath_dirs infos source =
  let root =
    match
      List.find_opt
        (fun c -> Sys.file_exists (Filename.concat c source))
        context_candidates
    with
    | Some r -> r
    | None -> Filename.current_dir_name
  in
  List.filter_map
    (fun dir ->
      let dir = if Filename.is_relative dir then Filename.concat root dir else dir in
      if Sys.file_exists dir then Some dir else None)
    infos.Cmt_format.cmt_loadpath

let load_file path =
  let infos = Cmt_format.read_cmt path in
  match infos.Cmt_format.cmt_annots with
  | Cmt_format.Implementation structure ->
    let source =
      match infos.Cmt_format.cmt_sourcefile with
      | Some s -> s
      | None -> path
    in
    if Filename.check_suffix source ".ml" then begin
      let present = Load_path.get_paths () in
      List.iter
        (fun dir -> if not (List.mem dir present) then Load_path.add_dir dir)
        (loadpath_dirs infos source);
      (* Dune writes an interface's .cmti next to the unit's .cmt. *)
      let interface = Sys.file_exists (Filename.remove_extension path ^ ".cmti") in
      Some { source; structure; interface }
    end
    else None  (* generated wrapper/alias modules *)
  | _ -> None

let rec walk dir =
  if not (Sys.is_directory dir) then [ dir ]
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry -> walk (Filename.concat dir entry))

let build_tree root =
  let built = Filename.concat (Filename.concat "_build" "default") root in
  if Sys.file_exists built && Sys.is_directory built then Some built
  else if Sys.file_exists root && Sys.is_directory root then Some root
  else None

let load_roots roots =
  let units =
    List.concat_map
      (fun root ->
        match build_tree root with
        | None ->
          failwith
            (Printf.sprintf
               "staticcheck: no build tree for %S (run dune build first)" root)
        | Some dir ->
          walk dir
          |> List.filter (fun p -> Filename.check_suffix p ".cmt")
          |> List.filter_map load_file)
      roots
  in
  List.sort (fun a b -> String.compare a.source b.source) units
