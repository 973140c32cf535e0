open Typedtree

(* Banned names matched against resolved paths: aliases are caught,
   strings and comments cannot trip a rule, and a local value that
   merely shares a banned name with a [M.f] pattern does not match. *)

let determinism_banned =
  [
    "Random.self_init";
    "Random.State.make_self_init";
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.localtime";
    "Unix.gmtime";
    "Sys.time";
  ]

let print_banned =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_int";
    "print_char";
    "print_float";
    "print_bytes";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
  ]

(* Traversals that visit a table's bindings in hash order, which
   [OCAMLRUNPARAM=R] reseeds per run. *)
let hashtbl_order_banned =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let sorts = [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq" ]

(* Stdlib's polymorphic orderings.  [min] and [max] are compiled once,
   for every type, so at type int each of their comparisons still calls
   compare_val.  The compiler specializes [compare] at an immediate type,
   called or passed as a value, but the type's own ordering pins the
   type: were the values to stop being immediate, [compare] would turn
   into compare_val unnoticed, where [Int.compare] stops compiling. *)
let stdlib_ordering p =
  match p with
  | Path.Pdot (Path.Pident m, (("min" | "max" | "compare") as f))
    when Ident.name m = "Stdlib" ->
    Some f
  | _ -> None

(* The name of the type an ordering is instantiated at, when it is
   immediate: int, char, or a variant whose constructors are all
   constant (bool among them).  An abstract type is not, whatever its
   definition. *)
let immediate_arg env ty =
  let constant cd =
    match cd.Types.cd_args with Types.Cstr_tuple [] -> true | _ -> false
  in
  match Types.get_desc (Spath.expand env ty) with
  | Types.Tarrow (_, arg, _, _) -> (
    match Types.get_desc (Spath.expand env arg) with
    | Types.Tconstr (p, _, _) ->
      let immediate =
        Path.same p Predef.path_int || Path.same p Predef.path_char
        ||
        match (Env.find_type p (Spath.full_env env)).Types.type_kind with
        | Types.Type_variant (cds, _) -> List.for_all constant cds
        | _ -> false
        | exception Not_found -> false
      in
      if immediate then Some (Spath.name p) else None
    | _ -> None)
  | _ -> None

type ctx = {
  b : Binding.t;
  mutable found : Site.t list;
  mutable sorted : expression list;  (* traversal idents whose result a sort takes *)
}

let report ctx ~rule ~loc message =
  ctx.found <- Binding.site ctx.b ~rule loc message :: ctx.found

let resolves_to names e =
  match e.exp_desc with
  | Texp_ident (raw, _, _) ->
    Spath.matches_any names (Spath.resolve_value e.exp_env raw) <> None
  | _ -> false

(* [x] is a traversal's application: remember its function. *)
let mark_sorted ctx x =
  match x.exp_desc with
  | Texp_apply (fn, _) when resolves_to hashtbl_order_banned fn ->
    ctx.sorted <- fn :: ctx.sorted
  | _ -> ()

(* A traversal's result goes straight into a sort when it is the last
   argument of [sort cmp] or of a partial [sort cmp]: the type checker
   turns [traversal ... |> sort cmp] and [sort cmp @@ traversal ...]
   into the second shape. *)
let note_sorts ctx fn args =
  let sort =
    match fn.exp_desc with
    | Texp_apply (g, _) -> resolves_to sorts g
    | _ -> resolves_to sorts fn
  in
  match List.rev args with (_, Some x) :: _ when sort -> mark_sorted ctx x | _ -> ()

let visit_expr ctx e =
  match e.exp_desc with
  | Texp_apply (fn, args) -> note_sorts ctx fn args
  | Texp_ident (raw, _, _) -> (
    let p = Spath.resolve_value e.exp_env raw in
    if Spath.matches_any hashtbl_order_banned p <> None && not (List.memq e ctx.sorted)
    then
      report ctx ~rule:"hashtbl-order" ~loc:e.exp_loc
        (Printf.sprintf
           "%s visits bindings in hash order, which the hash seed changes; \
            sort its result straight away, or justify an order-free \
            reduction in staticcheck.allow"
           (Spath.name p));
    (match stdlib_ordering p with
    | Some f -> (
      match immediate_arg e.exp_env e.exp_type with
      | Some ty ->
        report ctx ~rule:"poly-compare" ~loc:e.exp_loc
          (Printf.sprintf "Stdlib.%s at immediate type %s %s; use %s" f ty
             (if f = "compare" then
                "is the polymorphic compare by name, and calls compare_val \
                 unnoticed once the type stops being immediate"
              else "goes through the polymorphic compare (compare_val)")
             (if ty = "int" then "Int." ^ f
              else "the type's own ordering (Char.compare, Bool.compare or a match)"))
      | None -> ())
    | None -> ());
    match Spath.matches_any determinism_banned p with
    | Some _ ->
      report ctx ~rule:"determinism" ~loc:e.exp_loc
        (Printf.sprintf
           "%s depends on the host clock/entropy and breaks simulation \
            determinism"
           (Spath.name p))
    | None -> (
      match Spath.matches_any print_banned p with
      | Some _ ->
        report ctx ~rule:"no-print" ~loc:e.exp_loc
          (Printf.sprintf
             "%s writes to the terminal from library code; return data or \
              take a formatter instead"
             (Spath.name p))
      | None -> ()))
  | Texp_try (_, cases) -> (
    (* Only a handler whose first pattern is the bare wildcard: a
       trailing [| _ ->] after named exceptions is a deliberate
       catch-all. *)
    match cases with
    | { c_lhs = { pat_desc = Tpat_any; _ }; _ } :: _ ->
      report ctx ~rule:"no-blanket-catch" ~loc:e.exp_loc
        "try ... with _ -> swallows every exception (including sanitizer \
         assertions); match the exceptions you expect by name"
    | _ -> ())
  | _ -> ()

let check b =
  let ctx = { b; found = []; sorted = [] } in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          visit_expr ctx e;
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.Tast_iterator.expr it b.Binding.vb.vb_expr;
  ctx.found
