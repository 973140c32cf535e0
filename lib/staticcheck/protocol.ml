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
   internally does not reach the creating flow, since the closure may
   run arbitrarily later (or never). *)
type state = {
  armed : Ident.t list;  (* thread handles with a monitor armed *)
  armed_any : bool;  (* some monitor arm precedes this point *)
  tainted : Ident.t list;  (* freshly constructed, not-yet-armed workers *)
  waited : bool;  (* a stepped wait has run *)
  mwaited : bool;  (* an [Isa.mwait] has run *)
}

let initial =
  { armed = []; armed_any = false; tainted = []; waited = false; mwaited = false }

let arm st id = { st with armed = id :: st.armed; armed_any = true }
let taint st id = { st with tainted = id :: st.tainted }
let is_armed st id = List.exists (Ident.same id) st.armed
let is_tainted st id = List.exists (Ident.same id) st.tainted

let union xs ys =
  List.fold_left
    (fun acc id -> if List.exists (Ident.same id) acc then acc else id :: acc)
    xs ys

(* Where the flows of an [if]'s branches, a [match]'s cases or a
   handler's cases meet, what any of them did counts: the rule orders
   arms against publishes and parks, and trusts the guards. *)
let join a b =
  {
    armed = union a.armed b.armed;
    armed_any = a.armed_any || b.armed_any;
    tainted = union a.tainted b.tainted;
    waited = a.waited || b.waited;
    mwaited = a.mwaited || b.mwaited;
  }

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

(* --- summaries ------------------------------------------------------------ *)

(* A binding's walk ends in its summary, which a later call to it reads
   in place of its body: [let issue t ~client ... = ... Isa.monitor
   client ...] arms its [~client] argument at every call site. *)

type arg_key = Labelled_arg of string | Positional of int

type summary = {
  arms : arg_key list;  (* the parameters its body arms *)
  waits : bool;  (* it runs a stepped wait *)
  parks : bool;  (* it parks: see [summarize] *)
}

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

(* A body parks when it calls [Isa.mwait] itself, or when it runs a
   stepped wait and arms a monitor: the wait's steps park on what it
   armed. *)
let summarize params st =
  {
    arms =
      List.filter_map
        (fun (key, binder) ->
          match binder with Some id when is_armed st id -> Some key | _ -> None)
        params;
    waits = st.waited;
    parks = st.mwaited || (st.waited && st.armed_any);
  }

(* --- the walk ------------------------------------------------------------- *)

type ctx = {
  b : Binding.t;
  summaries : (Ident.t * summary) list;  (* of the bindings walked so far *)
  mutable found : Site.t list;
  mutable held : Site.t list;  (* publishes reported if the binding parks *)
}

let report ctx ~rule ~loc message =
  ctx.found <- Binding.site ctx.b ~rule loc message :: ctx.found

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

let first_positional_ident present =
  List.find_map (function Asttypes.Nolabel, _, a -> ident_of a | _ -> None) present

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
  | Texp_ifthenelse (c, t, f) ->
    let st = walk ctx st c in
    List.fold_left (fun acc e -> join acc (walk ctx st e)) st (t :: Option.to_list f)
  | Texp_match (scrut, cases, _) -> walk_cases ctx (walk ctx st scrut) cases
  | Texp_try (b, cases) -> walk_cases ctx (walk ctx st b) cases
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
  | _ ->
    (* Everything else evaluates its parts in order, loops included. *)
    let stref = ref st in
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ ce -> stref := walk ctx !stref ce);
      }
    in
    Tast_iterator.default_iterator.expr it e;
    !stref

(* Each case starts where the scrutinee (or the handled body) left off;
   where they meet, what any of them did counts. *)
and walk_cases : type k. ctx -> state -> k case list -> state =
 fun ctx st cases ->
  List.fold_left
    (fun acc c ->
      let g = match c.c_guard with Some g -> walk ctx st g | None -> st in
      join acc (walk ctx g c.c_rhs))
    st cases

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
      match first_positional_ident present with
      | Some th -> arm st th
      | None -> { st with armed_any = true })
    | Some p when Spath.matches_any park_fns p <> None ->
      let covered =
        match first_positional_ident present with
        | Some th -> is_armed st th
        | None -> st.armed_any
      in
      if not covered then
        report ctx ~rule:"park-before-arm" ~loc:e.exp_loc
          (Printf.sprintf
             "%s parks with no dominating Isa.monitor arm on this thread; a \
              wakeup raced here is lost forever"
             (Spath.name p));
      { st with mwaited = true }
    | Some p when Spath.matches_any stepped_wait_fns p <> None ->
      { st with waited = true }
    | Some p when Spath.matches_any lock_publish_fns p <> None ->
      if not st.armed_any then
        ctx.held <-
          Binding.site ctx.b ~rule:"lock-arm-before-publish" e.exp_loc
            (Printf.sprintf
               "%s publishes this waiter before any monitor arm, in a body \
                that parks; a grant landed in the publish-to-arm window is a \
                wake the waiter sleeps through forever (arm the wait word \
                first)"
               (Spath.name p))
          :: ctx.held;
      st
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
             (Spath.name p));
      st
    | Some (Path.Pident fid) -> (
      (* A module-local function: its call arms the matching argument
         idents, exactly as a direct [Isa.monitor] would, and runs its
         stepped wait. *)
      match List.find_opt (fun (id, _) -> Ident.same id fid) ctx.summaries with
      | Some (_, s) ->
        List.fold_left
          (fun st (label, pos, a) ->
            if List.exists (fun k -> key_matches k label ~pos) s.arms then
              match ident_of a with
              | Some id -> arm st id
              | None -> { st with armed_any = true }
            else st)
          { st with waited = st.waited || s.waits }
          present
      | None -> st)
    | _ -> st
  in
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

(* --- per binding ---------------------------------------------------------- *)

(* Walk [vb]'s body once, reporting as binding [b]: its findings, with
   the held publishes only if it parks, and the summaries with its own
   added. *)
let visit b summaries vb =
  let ctx = { b; summaries; found = []; held = [] } in
  let params, body = collect_params 0 [] vb.vb_expr in
  let s = summarize params (walk ctx initial body) in
  ( (if s.parks then ctx.held @ ctx.found else ctx.found),
    match Binding.ident vb with
    | Some id -> (id, s) :: summaries
    | None -> summaries )

(* In definition order, so a call reads the summary of a binding walked
   before it.  A [let rec … and …] group is summarized first (its
   findings dropped), so a member that calls one defined after it reads
   that one's summary too. *)
let check bindings =
  let found, _ =
    List.fold_left
      (fun (found, summaries) (b : Binding.t) ->
        let summaries =
          List.fold_left (fun s vb -> snd (visit b s vb)) summaries b.group
        in
        let mine, summaries = visit b summaries b.vb in
        (mine @ found, summaries))
      ([], []) bindings
  in
  found
