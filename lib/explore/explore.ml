module Fault = Sl_fault.Fault
module Rng = Sl_util.Rng
module Json = Sl_util.Json

type config = {
  seed : int64;
  trials : int;
  scenario : Scenario.t;
  max_shrink_runs : int;
}

let default_max_shrink_runs = 400

type repro = {
  spec : string;
  reason : string;
  original_spec : string;
  shrink_runs : int;
}

type report = {
  scenario : string;
  seed : int64;
  trials : int;
  trials_run : int;
  total_runs : int;
  failures : int;
  corpus_size : int;
  features : int;
  repros : repro list;
}

(* --- coverage ------------------------------------------------------------- *)

(* AFL-style logarithmic count buckets: a site that fired 40 times
   instead of 30 is the same behaviour, 1 vs 8 is not. *)
let bucket n =
  if n <= 0 then 0
  else if n = 1 then 1
  else if n = 2 then 2
  else if n = 3 then 3
  else if n <= 7 then 4
  else if n <= 15 then 5
  else if n <= 31 then 6
  else if n <= 127 then 7
  else 8

let features_of (o : Scenario.outcome) =
  let site_features =
    List.map
      (fun (k, n) -> Printf.sprintf "%s#%d" k (bucket n))
      (Scenario.sites o)
  in
  if o.Scenario.pass then site_features else "outcome#fail" :: site_features

(* --- generation ----------------------------------------------------------- *)

(* Probabilities are drawn as u² (biased toward small values, where the
   interesting partial-failure schedules live) and capped at 0.9 so no
   class is certain — a certain fault is a different experiment, not an
   explored one. *)
let draw_prob rng =
  let u = Rng.float rng in
  0.9 *. u *. u

let random_plan (sc : Scenario.t) rng =
  let plan = { Fault.none with Fault.seed = Rng.next_int64 rng } in
  let plan =
    List.fold_left
      (fun plan key ->
        if Rng.float rng < 0.6 then plan
        else Fault.with_prob plan key (draw_prob rng))
      plan sc.Scenario.prob_dims
  in
  List.fold_left
    (fun plan (key, lo, hi) ->
      if Rng.float rng < 0.7 then plan
      else Fault.with_cycles plan key (lo + Rng.int rng (hi - lo + 1)))
    plan sc.Scenario.cycles_dims

let mutate (sc : Scenario.t) rng parent =
  let plan = ref parent in
  (* Half the mutants keep the parent's knobs but reseed the streams:
     the same fault mix on a different schedule is cheap novelty. *)
  if Rng.bool rng then plan := { !plan with Fault.seed = Rng.next_int64 rng };
  let probs = Array.of_list sc.Scenario.prob_dims in
  let cycs = Array.of_list sc.Scenario.cycles_dims in
  let np = Array.length probs and nc = Array.length cycs in
  let n = 1 + Rng.int rng 3 in
  for _ = 1 to n do
    let i = Rng.int rng (np + nc) in
    if i < np then begin
      let key = probs.(i) in
      let cur = Fault.prob !plan key in
      let v =
        match Rng.int rng 4 with
        | 0 -> 0.0
        | 1 -> draw_prob rng
        | 2 -> Float.min 0.9 ((cur *. 2.0) +. 0.01)
        | _ -> cur /. 2.0
      in
      plan := Fault.with_prob !plan key v
    end
    else begin
      let key, lo, hi = cycs.(i - np) in
      plan := Fault.with_cycles !plan key (lo + Rng.int rng (hi - lo + 1))
    end
  done;
  !plan

(* --- shrinking ------------------------------------------------------------ *)

(* Delta-debug the failing plan down to a minimal repro.  Phase 1 is
   greedy removal in canonical field order, repeated to a fixpoint, so
   the result is 1-minimal: resetting any single surviving knob to its
   default makes the failure disappear.  Phase 2 halves the surviving
   probabilities while the plan still fails.  Every accepted candidate
   was re-executed and observed to fail, so the invariant "the current
   plan fails" holds throughout — whatever the budget, the returned
   spec reproduces the failure. *)
let shrink ~budget ~execute plan (first : Scenario.outcome) =
  let runs = ref 0 in
  let reason = ref first.Scenario.reason in
  let fails p =
    if !runs >= budget then false
    else begin
      incr runs;
      let o = execute p in
      if o.Scenario.pass then false
      else begin
        reason := o.Scenario.reason;
        true
      end
    end
  in
  let keys =
    List.map (fun k -> `P k) Fault.prob_keys
    @ List.map (fun k -> `C k) Fault.cycles_keys
  in
  let reset p = function
    | `P k ->
      let d = Fault.prob Fault.none k in
      if Fault.prob p k = d then None else Some (Fault.with_prob p k d)
    | `C k ->
      let d = Fault.cycles Fault.none k in
      if Fault.cycles p k = d then None else Some (Fault.with_cycles p k d)
  in
  let rec removal p =
    let changed = ref false in
    let p =
      List.fold_left
        (fun p key ->
          match reset p key with
          | None -> p
          | Some cand -> if fails cand then (changed := true; cand) else p)
        p keys
    in
    if !changed && !runs < budget then removal p else p
  in
  let value_shrink p =
    List.fold_left
      (fun p key ->
        let d = Fault.prob Fault.none key in
        let rec halve p =
          let v = Fault.prob p key in
          if v <= d || v < 1e-6 then p
          else begin
            let cand = Fault.with_prob p key (v /. 2.0) in
            if fails cand then halve cand else p
          end
        in
        halve p)
      p Fault.prob_keys
  in
  let rec fixpoint p =
    let q = value_shrink (removal p) in
    if q = p || !runs >= budget then q else fixpoint q
  in
  let minimal = fixpoint plan in
  {
    spec = Fault.to_spec minimal;
    reason = !reason;
    original_spec = Fault.to_spec plan;
    shrink_runs = !runs;
  }

(* --- the exploration loop ------------------------------------------------- *)

let run ?(stop = fun () -> false) (cfg : config) =
  let sc = cfg.scenario in
  let rng = Rng.create cfg.seed in
  let seen = Hashtbl.create 64 in
  let corpus = ref [||] in
  let trials_run = ref 0 in
  let total_runs = ref 0 in
  let failures = ref 0 in
  let repros = ref [] in
  let execute plan =
    incr total_runs;
    sc.Scenario.run plan
  in
  let t = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !t < cfg.trials do
    incr t;
    if stop () then stopped := true
    else begin
      let n = Array.length !corpus in
      let plan =
        if n = 0 || Rng.float rng < 0.3 then random_plan sc rng
        else mutate sc rng !corpus.(Rng.int rng n)
      in
      incr trials_run;
      let outcome = execute plan in
      let novel = ref false in
      List.iter
        (fun f ->
          if not (Hashtbl.mem seen f) then begin
            Hashtbl.add seen f ();
            novel := true
          end)
        (features_of outcome);
      if !novel then corpus := Array.append !corpus [| plan |];
      if not outcome.Scenario.pass then begin
        incr failures;
        let r = shrink ~budget:cfg.max_shrink_runs ~execute plan outcome in
        if not (List.exists (fun r' -> r'.spec = r.spec) !repros) then
          repros := r :: !repros
      end
    end
  done;
  {
    scenario = sc.Scenario.name;
    seed = cfg.seed;
    trials = cfg.trials;
    trials_run = !trials_run;
    total_runs = !total_runs;
    failures = !failures;
    corpus_size = Array.length !corpus;
    features = Hashtbl.length seen;
    repros = List.sort (fun a b -> compare a.spec b.spec) !repros;
  }

(* --- reporting ------------------------------------------------------------ *)

let repro_to_json r =
  Printf.sprintf
    "{\"spec\":%s,\"reason\":%s,\"original\":%s,\"shrink_runs\":%d}"
    (Json.quote r.spec) (Json.quote r.reason)
    (Json.quote r.original_spec)
    r.shrink_runs

let report_to_json r =
  Printf.sprintf
    "{\"schema\":\"switchless-explore/1\",\"scenario\":%s,\"seed\":%Ld,\
     \"trials\":%d,\"trials_run\":%d,\"total_runs\":%d,\"failures\":%d,\
     \"corpus\":%d,\"features\":%d,\"repros\":[%s]}"
    (Json.quote r.scenario) r.seed r.trials r.trials_run r.total_runs r.failures
    r.corpus_size r.features
    (String.concat "," (List.map repro_to_json r.repros))
