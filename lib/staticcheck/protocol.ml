open Typedtree

(* The protocol vocabulary.  All matching is on resolved paths (see
   {!Spath}); a local [module Isa = Switchless.Isa] alias or a direct
   qualified use both resolve to a path these suffixes match. *)
let monitor_fns = [ "Isa.monitor" ]
let park_fns = [ "Isa.mwait"; "Isa.mwait_for" ]

(* A stepped wait parks too, from inside its steps ([Chip.mwait_op]):
   the body that runs one through [Sim.wait] and arms a monitor is the
   waiter whose publish order matters (Lock's mwait waits). *)
let stepped_wait_fns = [ "Sim.wait" ]
let publish_fns = [ "Mailbox.send"; "Queue.push"; "Queue.add" ]

(* Waiter-list publish primitives: the atomic RMWs a lock waiter uses to
   make itself visible to a releaser (MCS tail swap, ticket draw).  In a
   body that parks, these must happen only after the waiter's monitor is
   armed — a grant landed in the publish-to-arm window is a wake the
   waiter then sleeps through. *)
let lock_publish_fns = [ "Atomics.exchange"; "Atomics.fetch_add"; "Atomics.rmw" ]

(* The doorbell carrier: a record with a field of this type is a worker
   some third party can ring. *)
let doorbell_type = "Memory.addr"

(* --- flow state ----------------------------------------------------------- *)

(* Immutable and threaded through the walk in evaluation order.  A
   closure created at some program point inherits the state at that
   point (it captures exactly that environment); what the closure does
   internally does not arm the creating flow, since the closure may run
   arbitrarily later (or never). *)
type state = {
  armed : Ident.t list;  (* thread handles with a monitor armed *)
  armed_any : bool;  (* some monitor arm dominates this point *)
  tainted : Ident.t list;  (* freshly constructed, not-yet-armed workers *)
}

let initial = { armed = []; armed_any = false; tainted = [] }

let arm st id = { st with armed = id :: st.armed; armed_any = true }
let taint st id = { st with tainted = id :: st.tainted }
let is_armed st id = List.exists (Ident.same id) st.armed
let is_tainted st id = List.exists (Ident.same id) st.tainted

(* --- structural predicates ------------------------------------------------ *)

exception Found

let expr_contains pred e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          if pred e then raise Found;
          Tast_iterator.default_iterator.expr it e);
    }
  in
  try
    it.Tast_iterator.expr it e;
    false
  with Found -> true

(* A record construction carrying a doorbell field, anywhere inside [e]
   (including under lambdas: [Array.init n (fun i -> { doorbell; .. })]
   builds workers just the same). *)
let builds_worker e =
  expr_contains
    (fun e ->
      match e.exp_desc with
      | Texp_record { fields; _ } ->
        Array.exists
          (fun (ld, _) -> Spath.type_matches doorbell_type ld.Types.lbl_arg)
          fields
      | _ -> false)
    e

(* A call to one of [fns], or to one of the module-local functions
   [locals], in this body, outside nested lambdas (a call inside a
   callback belongs to the callback's own flow). *)
let rec calls_directly ~fns ~locals e =
  match e.exp_desc with
  | Texp_function _ -> false
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
    when Spath.matches_any fns p <> None
         || (match p with
            | Path.Pident id -> List.exists (Ident.same id) locals
            | _ -> false) ->
    true
  | _ ->
    let found = ref false in
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ ce -> if calls_directly ~fns ~locals ce then found := true);
      }
    in
    Tast_iterator.default_iterator.expr it e;
    !found

let mentions_tainted st e =
  expr_contains
    (fun e ->
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> is_tainted st id
      | _ -> false)
    e

let ident_of e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some id
  | _ -> None

(* --- intra-module arming summaries ---------------------------------------- *)

(* [let issue t ~client ... = ... Isa.monitor client ...] arms its
   [~client] argument: record which parameters a module-local function
   unconditionally arms, so call sites count as arms.  Only monitor
   calls outside nested lambdas count — an arm inside a callback may
   never run. *)

type arg_key = Labelled_arg of string | Positional of int

let key_matches k (label : Asttypes.arg_label) ~pos =
  match (k, label) with
  | Labelled_arg s, (Asttypes.Labelled l | Asttypes.Optional l) -> s = l
  | Positional i, Asttypes.Nolabel -> i = pos
  | _ -> false

(* Strip the outermost chain of single-case [fun] nodes, collecting
   [(arg_key, param ident)] for parameters bound to plain variables. *)
let rec collect_params pos acc e =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } ->
    let key, pos =
      match arg_label with
      | Asttypes.Labelled l | Asttypes.Optional l -> (Labelled_arg l, pos)
      | Asttypes.Nolabel -> (Positional pos, pos + 1)
    in
    let binder =
      match c.c_lhs.pat_desc with
      | Tpat_var (id, _) -> Some id
      | Tpat_alias (_, id, _) -> Some id
      | _ -> None
    in
    collect_params pos ((key, binder) :: acc) c.c_rhs
  | _ -> (List.rev acc, e)

let rec monitor_targets acc e =
  match e.exp_desc with
  | Texp_function _ -> acc
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when Spath.matches_any monitor_fns p <> None -> (
    match List.find_map (function Asttypes.Nolabel, Some a -> ident_of a | _ -> None) args with
    | Some id -> id :: acc
    | None -> acc)
  | _ ->
    let acc = ref acc in
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ ce -> acc := monitor_targets !acc ce);
      }
    in
    Tast_iterator.default_iterator.expr it e;
    !acc

let summarize_binding vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (fn_id, _) -> (
    let params, body = collect_params 0 [] vb.vb_expr in
    if params = [] then None
    else
      let armed = monitor_targets [] body in
      let keys =
        List.filter_map
          (fun (key, binder) ->
            match binder with
            | Some id when List.exists (Ident.same id) armed -> Some key
            | _ -> None)
          params
      in
      match keys with [] -> None | keys -> Some (fn_id, keys))
  | _ -> None

let structure_bindings str =
  List.concat_map
    (fun item ->
      match item.str_desc with Tstr_value (_, vbs) -> vbs | _ -> [])
    str.str_items

let summarize_structure str =
  List.filter_map summarize_binding (structure_bindings str)

(* The module-local functions that run a stepped wait themselves. *)
let stepped_waiters str =
  List.filter_map
    (fun vb ->
      match vb.vb_pat.pat_desc with
      | Tpat_var (id, _)
        when calls_directly ~fns:stepped_wait_fns ~locals:[]
               (snd (collect_params 0 [] vb.vb_expr)) ->
        Some id
      | _ -> None)
    (structure_bindings str)

(* --- the walk ------------------------------------------------------------- *)

type ctx = {
  file : string;
  summaries : (Ident.t * arg_key list) list;
  waiters : Ident.t list;  (* module-local functions running a stepped wait *)
  mutable binding : string;  (* enclosing top-level binding *)
  mutable parker : bool;  (* the enclosing binding's body parks *)
  mutable found : Site.t list;
}

(* A body parks when it calls [Isa.mwait] itself, or when it runs a
   stepped wait and arms a monitor, each directly or through a
   module-local function: the wait's steps park on what it armed. *)
let parks ctx body =
  calls_directly ~fns:park_fns ~locals:[] body
  || calls_directly ~fns:stepped_wait_fns ~locals:ctx.waiters body
     && calls_directly ~fns:monitor_fns ~locals:(List.map fst ctx.summaries) body

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

let positional_args args =
  (* Pair every present argument with its positional index among the
     unlabelled ones, keeping its own label. *)
  let pos = ref 0 in
  List.filter_map
    (fun (label, arg) ->
      match arg with
      | None -> None
      | Some a ->
        let here = !pos in
        if label = Asttypes.Nolabel then incr pos;
        Some (label, here, a))
    args

let rec walk ctx st e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    (* A closure inherits the creating flow's state; its internal arms
       do not escape into the creating flow. *)
    List.iter (fun c -> ignore (walk ctx st c.c_rhs)) cases;
    st
  | Texp_let (_, vbs, body) ->
    let st =
      List.fold_left
        (fun st vb ->
          let st = walk ctx st vb.vb_expr in
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
            if builds_worker vb.vb_expr then taint st id else st
          | _ -> st)
        st vbs
    in
    walk ctx st body
  | Texp_sequence (a, b) ->
    let st = walk ctx st a in
    walk ctx st b
  | Texp_ifthenelse (c, t, f) ->
    let st = walk ctx st c in
    ignore (walk ctx st t);
    Option.iter (fun f -> ignore (walk ctx st f)) f;
    st
  | Texp_match (scrut, cases, _) ->
    let st = walk ctx st scrut in
    List.iter
      (fun c ->
        Option.iter (fun g -> ignore (walk ctx st g)) c.c_guard;
        ignore (walk ctx st c.c_rhs))
      cases;
    st
  | Texp_try (b, cases) ->
    let st = walk ctx st b in
    List.iter (fun c -> ignore (walk ctx st c.c_rhs)) cases;
    st
  | Texp_while (c, b) ->
    let st = walk ctx st c in
    ignore (walk ctx st b);
    st
  | Texp_for (_, _, lo, hi, _, b) ->
    let st = walk ctx st lo in
    let st = walk ctx st hi in
    ignore (walk ctx st b);
    st
  | Texp_setfield (r, _, _, v) ->
    let st = walk ctx st r in
    let st = walk ctx st v in
    (* Only storing the worker itself (or building one in place) into a
       field is a publish; mutating an unrelated field of a tainted
       record (a counter, a slot request) is not. *)
    let stores_worker =
      builds_worker v
      ||
      match ident_of v with Some id -> is_tainted st id | None -> false
    in
    if stores_worker && not st.armed_any then
      report ctx ~rule:"register-before-arm" ~loc:e.exp_loc
        "worker published through a mutable field before its monitor is \
         armed; a doorbell rung in this window is architecturally lost";
    st
  | Texp_apply (fn, args) -> walk_apply ctx st e fn args
  | _ -> generic ctx st e

and generic ctx st e =
  let stref = ref st in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ ce -> stref := walk ctx !stref ce);
    }
  in
  Tast_iterator.default_iterator.expr it e;
  !stref

and walk_apply ctx st e fn args =
  let present = positional_args args in
  (* Walk non-lambda arguments first (they evaluate before the call);
     lambda arguments are walked below, after taint is resolved, so a
     worker-iterating callback sees its parameter tainted. *)
  let st =
    List.fold_left
      (fun st (_, _, a) ->
        match a.exp_desc with Texp_function _ -> st | _ -> walk ctx st a)
      st present
  in
  let st = match fn.exp_desc with Texp_ident _ -> st | _ -> walk ctx st fn in
  let head =
    match fn.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None
  in
  let st =
    match head with
    | Some p when Spath.matches_any monitor_fns p <> None -> (
      match
        List.find_map
          (function Asttypes.Nolabel, _, a -> ident_of a | _ -> None)
          present
      with
      | Some th -> arm st th
      | None -> { st with armed_any = true })
    | Some (Path.Pident fid) -> (
      (* A module-local arming function: its call arms the matching
         argument idents, exactly as a direct [Isa.monitor] would. *)
      match List.find_opt (fun (id, _) -> Ident.same id fid) ctx.summaries with
      | Some (_, keys) ->
        List.fold_left
          (fun st (label, pos, a) ->
            if List.exists (fun k -> key_matches k label ~pos) keys then
              match ident_of a with
              | Some id -> arm st id
              | None -> { st with armed_any = true }
            else st)
          st present
      | None -> st)
    | _ -> st
  in
  (match head with
  | Some p when Spath.matches_any park_fns p <> None ->
    let covered =
      match
        List.find_map
          (function Asttypes.Nolabel, _, a -> ident_of a | _ -> None)
          present
      with
      | Some th -> is_armed st th
      | None -> st.armed_any
    in
    if not covered then
      report ctx ~rule:"park-before-arm" ~loc:e.exp_loc
        (Printf.sprintf
           "%s parks with no dominating Isa.monitor arm on this thread; a \
            wakeup raced here is lost forever"
           (Spath.name p))
  | Some p when Spath.matches_any lock_publish_fns p <> None ->
    if ctx.parker && not st.armed_any then
      report ctx ~rule:"lock-arm-before-publish" ~loc:e.exp_loc
        (Printf.sprintf
           "%s publishes this waiter before any monitor arm, in a body that \
            parks; a grant landed in the publish-to-arm window is a wake the \
            waiter sleeps through forever (arm the wait word first)"
           (Spath.name p))
  | Some p when Spath.matches_any publish_fns p <> None ->
    if
      (not st.armed_any)
      && List.exists (fun (_, _, a) -> mentions_tainted st a) present
    then
      report ctx ~rule:"register-before-arm" ~loc:e.exp_loc
        (Printf.sprintf
           "freshly built worker handed to %s before its monitor is armed; \
            a doorbell rung in this boot window is architecturally lost \
            (register only after MONITOR executes)"
           (Spath.name p))
  | _ -> ());
  (* Now the lambda arguments, with parameter taint when a tainted
     value rides along in the same call (Array.iter over fresh
     workers taints the callback's parameter). *)
  let tainted_call =
    List.exists
      (fun (_, _, a) ->
        match a.exp_desc with
        | Texp_function _ -> false
        | _ -> mentions_tainted st a)
      present
  in
  List.iter
    (fun (_, _, a) ->
      match a.exp_desc with
      | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            let st =
              if not tainted_call then st
              else
                match c.c_lhs.pat_desc with
                | Tpat_var (id, _) | Tpat_alias (_, id, _) -> taint st id
                | _ -> st
            in
            ignore (walk ctx st c.c_rhs))
          cases
      | _ -> ())
    present;
  st

(* --- structure driver ----------------------------------------------------- *)

let rec check_structure ctx str =
  let ctx =
    { ctx with summaries = summarize_structure str; waiters = stepped_waiters str }
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            (ctx.binding <-
               (match vb.vb_pat.pat_desc with
               | Tpat_var (id, _) -> Ident.name id
               | _ -> "-"));
            let _, body = collect_params 0 [] vb.vb_expr in
            ctx.parker <- parks ctx body;
            ignore (walk ctx initial vb.vb_expr))
          vbs
      | Tstr_eval (e, _) ->
        ctx.binding <- "-";
        ctx.parker <- parks ctx e;
        ignore (walk ctx initial e)
      | Tstr_module mb -> check_module ctx mb.mb_expr
      | Tstr_recmodule mbs -> List.iter (fun mb -> check_module ctx mb.mb_expr) mbs
      | _ -> ())
    str.str_items;
  ctx.found

and check_module ctx me =
  match me.mod_desc with
  | Tmod_structure str -> ignore (check_structure ctx str)
  | Tmod_constraint (me, _, _, _) -> check_module ctx me
  | Tmod_functor (_, me) -> check_module ctx me
  | _ -> ()

let check ~file str =
  let ctx =
    { file; summaries = []; waiters = []; binding = "-"; parker = false; found = [] }
  in
  let found = check_structure ctx str in
  List.sort_uniq Site.compare found
