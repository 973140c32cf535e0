module Mailbox = Sl_engine.Mailbox
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core

(* Contexts are named by their index in [t.contexts]; [none] names
   none. *)
let none = -1

type context = {
  id : int;
  core : Smt_core.t;
  slot : int;  (* on [core] *)
  mutable last_thread : int;  (* -1: never ran anyone *)
  mutable last_vector : bool;
  mutable idle : bool;
  (* Links on the idle stack while [idle]: the contexts released right
     after ([above]) and right before ([below]) it, or [none]. *)
  mutable above : int;
  mutable below : int;
}

type t = {
  params : Params.t;
  cores : Smt_core.t array;
  contexts : context array;
  mutable top : int;  (* the idle context released last, or [none] *)
  run_queue : context Mailbox.t;  (* threads waiting for a context *)
  warmup : bool;
  quantum : int option;
  mutable next_thread_id : int;
  mutable switches : int;
  mutable switch_overhead : int;
}

type thread = { sched : t; id : int; vector : bool; mutable last_ctx : int }

(* Newest released on top, so the pick without affinity takes the
   context released last. *)
let push_idle t (ctx : context) =
  ctx.idle <- true;
  ctx.above <- none;
  ctx.below <- t.top;
  if t.top <> none then t.contexts.(t.top).above <- ctx.id;
  t.top <- ctx.id

let take_idle t (ctx : context) =
  ctx.idle <- false;
  if ctx.above = none then t.top <- ctx.below
  else t.contexts.(ctx.above).below <- ctx.below;
  if ctx.below <> none then t.contexts.(ctx.below).above <- ctx.above;
  ctx

let create sim params ?(warmup = true) ?quantum ~cores:n_cores () =
  if n_cores <= 0 then invalid_arg "Swsched.create: need at least one core";
  (match quantum with
  | Some q when q < 1 ->
    invalid_arg "Swsched.create: quantum must be >= 1"
  | _ -> ());
  let cores =
    Array.init n_cores (fun core_id -> Smt_core.create sim params ~core_id)
  in
  let width = params.Params.smt_width in
  let contexts =
    Array.init (n_cores * width) (fun id ->
        let core_id = id / width and i = id mod width in
        let core = cores.(core_id) in
        let slot = Smt_core.add_slot core ~ptid:((core_id * 1024) + i) in
        Smt_core.set_runnable core ~slot ~weight:1.0 true;
        {
          id;
          core;
          slot;
          last_thread = -1;
          last_vector = false;
          idle = false;
          above = none;
          below = none;
        })
  in
  let t =
    {
      params;
      cores;
      contexts;
      top = none;
      run_queue = Mailbox.create ();
      warmup;
      quantum;
      next_thread_id = 0;
      switches = 0;
      switch_overhead = 0;
    }
  in
  Array.iter (push_idle t) contexts;
  t

let thread t ?(vector = false) () =
  let id = t.next_thread_id in
  t.next_thread_id <- t.next_thread_id + 1;
  { sched = t; id; vector; last_ctx = none }

(* Affinity-aware pick: an idle context that last ran this thread is free
   to reuse (no switch); otherwise any idle context; otherwise queue. *)
let acquire t thread =
  if thread.last_ctx <> none && t.contexts.(thread.last_ctx).idle then
    take_idle t t.contexts.(thread.last_ctx)
  else if t.top <> none then take_idle t t.contexts.(t.top)
  else Mailbox.recv t.run_queue

let release t ctx = if not (Mailbox.hand t.run_queue ctx) then push_idle t ctx

(* Charge the software switch cost on the context that is switching.
   The two calls pass [warmup] as constants, so no [Some] is built. *)
let charge_switch t ctx ~incoming_vector =
  let out_vector = ctx.last_vector and in_vector = incoming_vector in
  let cost =
    if t.warmup then Ctx_cost.software_switch_cycles t.params ~out_vector ~in_vector ()
    else Ctx_cost.software_switch_cycles t.params ~warmup:false ~out_vector ~in_vector ()
  in
  t.switches <- t.switches + 1;
  t.switch_overhead <- t.switch_overhead + cost;
  Smt_core.execute ctx.core ~slot:ctx.slot ~kind:Smt_core.Overhead cost

let exec thread ?(kind = Smt_core.Useful) cycles =
  if cycles < 0 then invalid_arg "Swsched.exec: negative cycles";
  let t = thread.sched in
  let remaining = ref cycles in
  while !remaining > 0 do
    let ctx = acquire t thread in
    thread.last_ctx <- ctx.id;
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
    Smt_core.execute ctx.core ~slot:ctx.slot ~kind slice;
    remaining := !remaining - slice;
    (* Hand off to the longest-waiting thread: with a quantum this is
       round-robin. *)
    release t ctx
  done

let context_count t = Array.length t.contexts
let switch_count t = t.switches
let switch_overhead_cycles t = float_of_int t.switch_overhead
let cores t = t.cores
