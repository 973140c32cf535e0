(* Dotted-suffix matching over resolved [Path.t]s.  See the .mli for
   the normalization contract. *)

(* A dune-mangled compilation unit ("Sl_engine__Sim", "Stdlib__Printf")
   names the wrapped module after the double underscore; reduce it to
   that component so rules are written against source-level names. *)
let demangle component =
  match String.index_opt component '_' with
  | None -> component
  | Some _ -> (
    let n = String.length component in
    let rec find i =
      if i + 1 >= n then None
      else if component.[i] = '_' && component.[i + 1] = '_' then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> component
    | Some i when i + 2 < n ->
      String.capitalize_ascii (String.sub component (i + 2) (n - i - 2))
    | Some _ -> component)

let rec components p acc =
  match p with
  | Path.Pident id -> demangle (Ident.name id) :: acc
  | Path.Pdot (p, s) -> components p (s :: acc)
  | Path.Papply (p, _) -> components p acc
  | Path.Pextra_ty (p, _) -> components p acc

let normalized p =
  match components p [] with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | parts -> parts

let name p = String.concat "." (normalized p)

let matches pattern p =
  let want = String.split_on_char '.' pattern in
  let got = normalized p in
  let rec suffix xs =
    xs = want || match xs with [] -> false | _ :: tl -> suffix tl
  in
  suffix got

let matches_any patterns p = List.find_opt (fun pat -> matches pat p) patterns

(* The envs embedded in a .cmt are summaries; reconstruct before any
   lookup.  Reconstruction pulls dependency .cmis through Load_path
   (primed by Cmt_load); a failure degrades to the summary env, which
   makes lookups miss — rules widen toward silence, never toward a
   false report. *)
let full_env env =
  try Envaux.env_of_only_summary env with Envaux.Error _ -> env

(* Head abbreviations expanded in the reconstructed env.  Ctype may
   raise compiler-libs exceptions of its own; any failure keeps [ty] as
   it is, so a rule's type test misses, toward silence. *)
let expand env ty = try Ctype.expand_head (full_env env) ty with _ -> ty

(* Canonical value path: module aliases expanded ([module S = Sys]
   makes [S.time] normalize to [Sys.time]), so suffix patterns match
   the real identity, not the local spelling. *)
let resolve_value env p =
  match Env.normalize_value_path None (full_env env) p with
  | p -> p
  | exception Not_found -> p
  | exception Envaux.Error _ -> p

let head_constr ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some p
  | _ -> None

let type_matches pattern ty =
  match head_constr ty with Some p -> matches pattern p | None -> false
