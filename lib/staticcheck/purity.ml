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

type ctx = {
  file : string;
  check_prints : bool;
  mutable binding : string;
  mutable found : Site.t list;
}

let report ctx ~rule ~loc message =
  ctx.found <-
    {
      Site.rule;
      file = ctx.file;
      line = loc.Location.loc_start.Lexing.pos_lnum;
      ident = ctx.binding;
      message;
    }
    :: ctx.found

let visit_expr ctx e =
  match e.exp_desc with
  | Texp_ident (raw, _, _) -> (
    let p = Spath.resolve_value e.exp_env raw in
    match Spath.matches_any determinism_banned p with
    | Some _ ->
      report ctx ~rule:"determinism" ~loc:e.exp_loc
        (Printf.sprintf
           "%s depends on the host clock/entropy and breaks simulation \
            determinism"
           (Spath.name p))
    | None ->
      if ctx.check_prints then (
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

let check ~file ~check_prints str =
  let ctx = { file; check_prints; binding = "-"; found = [] } in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          visit_expr ctx e;
          Tast_iterator.default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) when ctx.binding = "-" ->
            ctx.binding <- Ident.name id;
            Tast_iterator.default_iterator.value_binding it vb;
            ctx.binding <- "-"
          | _ -> Tast_iterator.default_iterator.value_binding it vb));
    }
  in
  it.Tast_iterator.structure it str;
  List.sort_uniq Site.compare ctx.found
