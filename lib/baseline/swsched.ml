module Sim = Sl_engine.Sim
module Ivar = Sl_engine.Ivar
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

type context = {
  core : Smt_core.t;
  ptid : int;
  mutable last_thread : int;  (* -1: never ran anyone *)
  mutable last_vector : bool;
}

type t = {
  sim : Sim.t;
  params : Params.t;
  cores : Smt_core.t array;
  mutable free : context list;  (* idle contexts *)
  waiters : context Ivar.t Queue.t;  (* threads queued for a context *)
  warmup : bool;
  quantum : int option;
  n_contexts : int;
  mutable next_thread_id : int;
  mutable switches : int;
  mutable switch_overhead : float;
}

type thread = { sched : t; id : int; vector : bool; mutable last_ctx : context option }

let create sim params ?(warmup = true) ?quantum ~cores:n_cores () =
  if n_cores <= 0 then invalid_arg "Swsched.create: need at least one core";
  (match quantum with
  | Some q when q < 1 ->
    invalid_arg "Swsched.create: quantum must be >= 1"
  | _ -> ());
  let cores =
    Array.init n_cores (fun core_id -> Smt_core.create sim params ~core_id)
  in
  let free = ref [] in
  Array.iteri
    (fun core_id core ->
      for slot = 0 to params.Params.smt_width - 1 do
        let ptid = (core_id * 1024) + slot in
        Smt_core.set_runnable core ~ptid ~weight:1.0 true;
        free := { core; ptid; last_thread = -1; last_vector = false } :: !free
      done)
    cores;
  {
    sim;
    params;
    cores;
    free = !free;
    waiters = Queue.create ();
    warmup;
    quantum;
    n_contexts = List.length !free;
    next_thread_id = 0;
    switches = 0;
    switch_overhead = 0.0;
  }

let thread t ?(vector = false) () =
  let id = t.next_thread_id in
  t.next_thread_id <- t.next_thread_id + 1;
  { sched = t; id; vector; last_ctx = None }

(* Affinity-aware pick: an idle context that last ran this thread is free
   to reuse (no switch); otherwise any idle context; otherwise queue. *)
let acquire t thread =
  let take ctx =
    t.free <- List.filter (fun c -> c != ctx) t.free;
    ctx
  in
  match thread.last_ctx with
  | Some ctx when List.memq ctx t.free -> take ctx
  | _ -> (
    match t.free with
    | ctx :: _ -> take ctx
    | [] ->
      let handed = Ivar.create () in
      Queue.push handed t.waiters;
      Ivar.read handed)

let release t ctx =
  match Queue.take_opt t.waiters with
  | Some handed -> Ivar.fill handed ctx
  | None -> t.free <- ctx :: t.free

(* Charge the software switch cost on the context that is switching. *)
let charge_switch t ctx ~incoming_vector =
  let cost =
    Ctx_cost.software_switch_cycles t.params ~warmup:t.warmup
      ~out_vector:ctx.last_vector ~in_vector:incoming_vector ()
  in
  t.switches <- t.switches + 1;
  t.switch_overhead <- t.switch_overhead +. float_of_int cost;
  Smt_core.execute ctx.core ~ptid:ctx.ptid ~kind:Smt_core.Overhead cost

let exec thread ?(kind = Smt_core.Useful) cycles =
  if cycles < 0 then invalid_arg "Swsched.exec: negative cycles";
  let t = thread.sched in
  let remaining = ref cycles in
  while !remaining > 0 do
    let ctx = acquire t thread in
    thread.last_ctx <- Some ctx;
    if ctx.last_thread <> thread.id then begin
      charge_switch t ctx ~incoming_vector:thread.vector;
      ctx.last_thread <- thread.id;
      ctx.last_vector <- thread.vector
    end;
    let slice =
      match t.quantum with
      | None -> !remaining
      | Some q -> if q < !remaining then q else !remaining
    in
    Smt_core.execute ctx.core ~ptid:ctx.ptid ~kind slice;
    remaining := !remaining - slice;
    (* Hand off to the longest-waiting thread: with a quantum this is
       round-robin. *)
    release t ctx
  done

let context_count t = t.n_contexts
let switch_count t = t.switches
let switch_overhead_cycles t = t.switch_overhead
let cores t = t.cores
