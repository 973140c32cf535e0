open Typedtree

(* Blessed cross-domain cells. *)
let safe_types = [ "Atomic.t"; "Domain.DLS.key" ]

(* Mutable containers with no internal synchronisation. *)
let mutable_builtin =
  [ "ref"; "array"; "bytes"; "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t" ]

(* Immutable wrappers worth looking through for a mutable payload. *)
let containers = [ "option"; "list"; "result"; "Lazy.t" ]

let mutable_record env p =
  match Env.find_type p (Spath.full_env env) with
  | decl -> (
    match decl.Types.type_kind with
    | Types.Type_record (lbls, _)
      when List.exists (fun l -> l.Types.ld_mutable = Asttypes.Mutable) lbls ->
      Some (Spath.name p ^ " (record with mutable fields)")
    | _ -> None)
  | exception Not_found -> None

let rec mutable_reason env depth ty =
  if depth > 4 then None
  else
    let ty = Spath.expand env ty in
    match Types.get_desc ty with
    | Types.Ttuple tys -> List.find_map (mutable_reason env (depth + 1)) tys
    | Types.Tconstr (p, args, _) ->
      if Spath.matches_any safe_types p <> None then None
      else (
        match Spath.matches_any mutable_builtin p with
        | Some pat -> Some pat
        | None -> (
          match mutable_record env p with
          | Some reason -> Some reason
          | None ->
            if Spath.matches_any containers p <> None then
              List.find_map (mutable_reason env (depth + 1)) args
            else None))
    | _ -> None

(* A pattern binding or an eval names no state of its own. *)
let check (b : Binding.t) =
  let e = b.vb.vb_expr in
  match mutable_reason e.exp_env 0 e.exp_type with
  | Some reason when Option.is_some (Binding.ident b.vb) ->
    [
      Binding.site b ~rule:"domain-safety" b.vb.vb_loc
        (Printf.sprintf
           "top-level mutable state (%s) is shared by every domain \
            unsynchronised; use Atomic.t, Domain.DLS, or pass the state \
            through an explicit handle"
           reason);
    ]
  | _ -> []
