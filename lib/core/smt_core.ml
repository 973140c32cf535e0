module Sim = Sl_engine.Sim

type kind = Useful | Poll | Overhead

let kind_index = function Useful -> 0 | Poll -> 1 | Overhead -> 2

(* Hot-path note: [advance]/[reschedule] run on every runnability change
   and every [execute], so with N runnable threads a boot storm that arms
   N monitors is N calls touching N jobs each.  Per-thread state is laid
   out struct-of-arrays, indexed by an interned dense [slot]: in-flight
   work lives in unboxed [j_rem]/[j_kind] parallel arrays (serving a job
   is two array stores, no [float ref] cell or record field to chase),
   billing in an unboxed [b_cycles] array, and the active set is
   collected into reusable scratch arrays ([sslot]/[sweight]/[srate]/
   [scapped]) instead of freshly consed lists.

   Slots are interned, not raw ptids: callers key this module by ptid,
   and ptids are sparse sentinels in places (the flexsc worker is
   777_777, hypervisors are 9_000) — sizing the dense arrays by the raw
   ptid would allocate megabytes per core for a handful of threads,
   which dominated experiments that build a fresh world per measurement
   point.  The [slots] table is consulted once per ptid-keyed call; the
   slot-keyed entry points skip it ([Chip] caches each thread's slot), and
   every per-event loop below is slot-indexed.

   In the common shape — nothing frozen, every weight 1.0 — [advance]
   serves at one closed-form rate straight off the runnable array, with
   no scratch pass and no water-filling, and neither it nor the
   closed-form [reschedule] boxes a float per job or per call: a float
   crossing a non-inlined call is boxed, which the [zero-alloc] rule
   cannot see, so test/core bounds the words per [execute] instead.

   The runnable set itself is a compact swap-remove array
   ([rslot]/[rweight], indexed through [rpos]) rather than a Hashtbl:
   stdlib hash tables never shrink their bucket array, so after a
   2,000-thread boot storm every [Hashtbl.iter] on the steady-state hot
   path kept scanning ~2k mostly-empty buckets per advance — an O(peak)
   cost per event that dominated e8's wake sweep.  Iterating the compact
   array is O(currently runnable) instead.

   Determinism: per-job service is computed independently of scratch
   order, rates are exact for the weight values experiments use, and
   jobs that finish in the same advance complete in the order the serve
   loop visits them — a function of the runnable array's history, never
   of a hash seed. *)

(* The two floats the serve path stores on every advance.  An all-float
   record holds them unboxed, where a [float ref] or a float field of
   [t] (a mixed record) would box each stored value. *)
type floats = {
  mutable busy : float;  (* pipeline capacity used, see {!busy_capacity_cycles} *)
  mutable min_rem : float;  (* least remaining over active jobs, see [min_valid] *)
}

type t = {
  sim : Sim.t;
  params : Params.t;
  core_id : int;
  (* ptid -> slot interning; [s_ptid] is the reverse map. *)
  slots : (int, int) Hashtbl.t;
  mutable s_ptid : int array;
  mutable nslots : int;
  (* In-flight jobs, dense by slot: [j_kind.(s) = -1] means no job. *)
  mutable j_kind : int array;
  mutable j_rem : float array;  (* cycles of service still owed *)
  (* Completion cells: the executing thread's waker is parked in
     [j_resume] (by the slot's preallocated [j_suspension]) and woken
     when the job finishes.  Sound because nothing yields between
     [execute]'s reschedule and its suspend, so a completion can never
     fire before its reader registers. *)
  mutable j_resume : Sim.waker array;
  mutable j_suspension : Sim.suspension array;
  mutable njobs : int;
  mutable rpos : int array;  (* slot -> index in rslot/rweight; -1 *)
  mutable rslot : int array;  (* runnable slots, compact prefix [0, rcount) *)
  mutable rweight : float array;  (* weight of rslot.(i) *)
  mutable rcount : int;
  mutable last_update : Sim.Time.t;
  mutable epoch : int;  (* stamps completion events; bumps invalidate them *)
  f : floats;
  work : float array;  (* indexed by kind *)
  (* Billing, dense by slot. *)
  mutable b_cycles : float array;
  mutable b_flag : int array;  (* 1 = has a billing entry *)
  (* Scratch state for the active set; valid between [collect_active] and
     the end of the computation using it. *)
  mutable sslot : int array;
  mutable sweight : float array;
  mutable srate : float array;
  mutable scapped : bool array;
  mutable scount : int;
  (* Fast-path bookkeeping for [advance] and [reschedule].  With every
     job runnable ([frozen = 0]) and every runnable weight exactly 1.0
     ([nonunit = 0]), processor sharing degenerates to one rate for all
     n active jobs ([unit_rate], bit-identical to water-filling), and the
     earliest completion is that of the job with the least remaining
     work — so the next event time follows from [f.min_rem] alone, in
     O(1). *)
  mutable frozen : int;  (* jobs whose thread is not currently runnable *)
  mutable nonunit : int;  (* runnable threads whose weight is not 1.0 *)
  mutable min_valid : bool;  (* [f.min_rem] is valid only when this is set *)
}

let no_suspension = Sim.suspension (fun _ -> ())

let create sim params ~core_id =
  {
    sim;
    params;
    core_id;
    slots = Hashtbl.create 64;
    s_ptid = Array.make 16 (-1);
    nslots = 0;
    j_kind = Array.make 16 (-1);
    j_rem = Array.make 16 0.0;
    j_resume = Array.make 16 Sim.no_waker;
    j_suspension = Array.make 16 no_suspension;
    njobs = 0;
    rpos = Array.make 16 (-1);
    rslot = Array.make 16 0;
    rweight = Array.make 16 0.0;
    rcount = 0;
    last_update = 0;
    epoch = 0;
    f = { busy = 0.0; min_rem = infinity };
    work = Array.make 3 0.0;
    b_cycles = Array.make 16 0.0;
    b_flag = Array.make 16 0;
    sslot = Array.make 16 0;
    sweight = Array.make 16 0.0;
    srate = Array.make 16 0.0;
    scapped = Array.make 16 false;
    scount = 0;
    frozen = 0;
    nonunit = 0;
    min_valid = false;
  }

let core_id t = t.core_id

(* Grow every slot-indexed array to cover [slot].  Slots are interned
   densely, so this only ever doubles — never jumps to a sparse ptid. *)
let ensure_slot t slot =
  let n = Array.length t.j_kind in
  if slot >= n then begin
    let cap = max (slot + 1) (2 * n) in
    let grow a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 n;
      b
    in
    t.s_ptid <- grow t.s_ptid (-1);
    t.j_kind <- grow t.j_kind (-1);
    t.j_rem <- grow t.j_rem 0.0;
    t.j_resume <- grow t.j_resume Sim.no_waker;
    t.j_suspension <- grow t.j_suspension no_suspension;
    t.rpos <- grow t.rpos (-1);
    t.b_cycles <- grow t.b_cycles 0.0;
    t.b_flag <- grow t.b_flag 0
  end

(* Intern [ptid], allocating its slot on first use. *)
let slot_of t ptid =
  match Hashtbl.find_opt t.slots ptid with
  | Some s -> s
  | None ->
    let s = t.nslots in
    t.nslots <- s + 1;
    ensure_slot t s;
    t.s_ptid.(s) <- ptid;
    Hashtbl.replace t.slots ptid s;
    s

let has_job t slot = t.j_kind.(slot) >= 0

let runnable_add t slot weight =
  let i = t.rpos.(slot) in
  if i >= 0 then t.rweight.(i) <- weight
  else begin
    if t.rcount = Array.length t.rslot then begin
      let cap = 2 * t.rcount in
      let slots = Array.make cap 0 in
      let weights = Array.make cap 0.0 in
      Array.blit t.rslot 0 slots 0 t.rcount;
      Array.blit t.rweight 0 weights 0 t.rcount;
      t.rslot <- slots;
      t.rweight <- weights
    end;
    t.rslot.(t.rcount) <- slot;
    t.rweight.(t.rcount) <- weight;
    t.rpos.(slot) <- t.rcount;
    t.rcount <- t.rcount + 1
  end

let runnable_remove t slot =
  let i = t.rpos.(slot) in
  if i >= 0 then begin
    t.rpos.(slot) <- -1;
    let last = t.rcount - 1 in
    if i < last then begin
      let moved = t.rslot.(last) in
      t.rslot.(i) <- moved;
      t.rweight.(i) <- t.rweight.(last);
      t.rpos.(moved) <- i
    end;
    t.rcount <- last
  end

let ensure_scratch t n =
  if Array.length t.sslot < n then begin
    let cap = max n (2 * Array.length t.sslot) in
    t.sslot <- Array.make cap 0;
    t.sweight <- Array.make cap 0.0;
    t.srate <- Array.make cap 0.0;
    t.scapped <- Array.make cap false
  end

(* Fill the scratch arrays with the runnable slots holding in-flight jobs
   and their weights, in runnable-array order.  O(runnable), not O(peak
   runnable) — see the hot-path note on [t]. *)
let collect_active t =
  if t.njobs = 0 || t.rcount = 0 then t.scount <- 0
  else begin
    ensure_scratch t t.rcount;
    let k = ref 0 in
    for i = 0 to t.rcount - 1 do
      let slot = t.rslot.(i) in
      if has_job t slot then begin
        t.sslot.(!k) <- slot;
        t.sweight.(!k) <- t.rweight.(i);
        incr k
      end
    done;
    t.scount <- !k
  end

(* Weighted processor sharing with per-thread rate cap 1.0: water-filling.
   Fills [srate.(i)] for every active job. *)
let compute_rates t =
  let width = float_of_int t.params.Params.smt_width in
  let n = t.scount in
  if n = 0 then ()
  else if n <= t.params.Params.smt_width then
    for i = 0 to n - 1 do
      t.srate.(i) <- 1.0
    done
  else begin
    (* Iteratively cap threads whose fair share exceeds 1.0. *)
    for i = 0 to n - 1 do
      t.scapped.(i) <- false
    done;
    let uncapped_total () =
      let total = ref 0.0 in
      for i = n - 1 downto 0 do
        if not t.scapped.(i) then total := !total +. t.sweight.(i)
      done;
      !total
    in
    let uncapped_count () =
      let c = ref 0 in
      for i = 0 to n - 1 do
        if not t.scapped.(i) then incr c
      done;
      !c
    in
    let rec settle capacity =
      let total_weight = uncapped_total () in
      if uncapped_count () = 0 || total_weight <= 0.0 then ()
      else begin
        let overflow = ref 0 in
        for i = 0 to n - 1 do
          if
            (not t.scapped.(i))
            && capacity *. t.sweight.(i) /. total_weight >= 1.0
          then begin
            t.scapped.(i) <- true;
            incr overflow
          end
        done;
        if !overflow > 0 then settle (capacity -. float_of_int !overflow)
      end
    in
    settle width;
    let total_weight = uncapped_total () in
    let residual = width -. float_of_int (n - uncapped_count ()) in
    for i = 0 to n - 1 do
      t.srate.(i) <-
        (if t.scapped.(i) then 1.0 else residual *. t.sweight.(i) /. total_weight)
    done
  end

(* Retire [slot]'s job and wake the thread waiting for it.  The wake
   only queues the thread's continuation at the current instant, so the
   caller's scratch state stays valid. *)
let complete t slot =
  t.j_kind.(slot) <- -1;
  t.njobs <- t.njobs - 1;
  let w = t.j_resume.(slot) in
  if w != Sim.no_waker then begin
    t.j_resume.(slot) <- Sim.no_waker;
    Sim.wake w
  end

(* The rate of every job when nothing is frozen and every runnable weight
   is 1.0: water-filling's closed form.  n unit weights sum exactly to
   [float n], no job is capped and the residual is exactly [width], so
   [compute_rates] would give each job [width *. 1.0 /. float n] — this
   value, bit for bit (1.0 when n fits the width).  Inlined, because a
   float returned from a call is boxed. *)
let[@inline] unit_rate t =
  let width = t.params.Params.smt_width in
  if t.njobs <= width then 1.0 else float_of_int width /. float_of_int t.njobs

(* Deliver service for the time elapsed since the last update, completing
   any jobs that finished.  When no time has passed nothing can have
   finished either — every in-flight job still owes > 1e-6 cycles
   ([execute] admits only positive work and finished jobs are removed the
   moment they are served down) — so the whole pass is skipped.

   Uniform path: with nothing frozen and every runnable weight 1.0 the
   active set is every job, all at [unit_rate], so the loop walks the
   runnable array itself — in the order the scratch arrays would have
   held it — with no scratch pass and no water-filling.  Both paths
   serve highest index first, so same-advance completions keep one
   order.  The loop body allocates nothing and calls no C code: [busy]
   and the work of each kind accumulate in locals, billing is written
   out inline (a float passed to a non-inlined call is boxed), and the
   served amount is a plain comparison — [Float.min] calls
   [caml_signbit_float].  Each accumulator sees the same additions in
   the same order as before, so every sum is bit-identical. *)
let advance t =
  let now = Sim.time t.sim in
  let elapsed = float_of_int (now - t.last_update) in
  t.last_update <- now;
  if elapsed > 0.0 then begin
    let uniform = t.frozen = 0 && t.nonunit = 0 in
    let urate = unit_rate t in
    let count =
      if t.njobs = 0 then 0
      else if uniform then t.rcount
      else begin
        collect_active t;
        compute_rates t;
        t.scount
      end
    in
    let busy = ref t.f.busy in
    let useful = ref t.work.(0) and poll = ref t.work.(1) and overhead = ref t.work.(2) in
    let live_min = ref infinity in
    (* Only jobs served just now can finish (frozen jobs owe > 1e-6 by
       the invariant above); they complete in serve-loop order. *)
    for i = count - 1 downto 0 do
      let slot = if uniform then t.rslot.(i) else t.sslot.(i) in
      let kind = t.j_kind.(slot) in
      if kind >= 0 then begin
        let rem = t.j_rem.(slot) in
        let share = elapsed *. if uniform then urate else t.srate.(i) in
        let served = if rem < share then rem else share in
        let left = rem -. served in
        t.j_rem.(slot) <- left;
        busy := !busy +. served;
        if kind = 0 then useful := !useful +. served
        else if kind = 1 then poll := !poll +. served
        else overhead := !overhead +. served;
        t.b_flag.(slot) <- 1;
        t.b_cycles.(slot) <- t.b_cycles.(slot) +. served;
        if left > 1e-6 then begin
          if left < !live_min then live_min := left
        end
        else complete t slot
      end
    done;
    t.f.busy <- !busy;
    t.work.(0) <- !useful;
    t.work.(1) <- !poll;
    t.work.(2) <- !overhead;
    if t.frozen = 0 then begin
      t.f.min_rem <- !live_min;
      t.min_valid <- !live_min < infinity
    end
    else t.min_valid <- false
  end

(* Unit weights, nothing frozen: every job is active at [unit_rate], so
   the earliest completion is the least-remaining job's.  [dt] below is
   bit-identical to the general path's minimum, since ceil and the
   floor at 1 are monotone.  [Float.round] of a [ceil] is the identity,
   and [Float.max] would call into C, so both are left out.  This runs
   once per completion event in the common experiment shape, hence the
   allocation budget; the delay comes back as an immediate int, since a
   float result would be boxed.  Precondition: a job is in flight. *)
let next_unit_weight_dt t =
  let dt = Float.ceil (t.f.min_rem /. unit_rate t) in
  if dt < 1.0 then 1 else int_of_float dt
[@@sl.zero_alloc]

(* Cycles from now to the next completion, or -1 if no active job is
   served.  Precondition: a job is in flight. *)
let next_dt t =
  if t.frozen = 0 && t.nonunit = 0 && t.min_valid then next_unit_weight_dt t
  else begin
    collect_active t;
    compute_rates t;
    let next = ref infinity in
    for i = t.scount - 1 downto 0 do
      let rate = t.srate.(i) in
      if rate > 0.0 then begin
        let dt = Float.ceil (t.j_rem.(t.sslot.(i)) /. rate) in
        let dt = if dt < 1.0 then 1.0 else dt in
        if dt < !next then next := dt
      end
    done;
    if !next < infinity then int_of_float !next else -1
  end

(* Schedule the next completion event [dt] cycles from now (none if
   [dt < 0]), invalidating older ones.  With no job in flight there is
   nothing to schedule or scan. *)
let rec schedule_completion t dt =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  if dt >= 0 then
    Sim.schedule t.sim ~at:(Sim.time t.sim + dt) (fun () ->
        if epoch = t.epoch then begin
          advance t;
          reschedule t
        end)

and reschedule t = schedule_completion t (if t.njobs > 0 then next_dt t else -1)

let slot t ~ptid = slot_of t ptid

let set_runnable_slot t ~slot ~weight runnable =
  if weight <= 0.0 then invalid_arg "Smt_core.set_runnable: weight must be positive";
  advance t;
  let si = t.rpos.(slot) in
  let had = si >= 0 in
  if had && t.rweight.(si) <> 1.0 then t.nonunit <- t.nonunit - 1;
  if runnable then begin
    runnable_add t slot weight;
    if weight <> 1.0 then t.nonunit <- t.nonunit + 1;
    if (not had) && has_job t slot then begin
      (* A frozen job thaws back into the active set. *)
      t.frozen <- t.frozen - 1;
      let rem = t.j_rem.(slot) in
      if t.min_valid && rem < t.f.min_rem then t.f.min_rem <- rem
    end
  end
  else begin
    runnable_remove t slot;
    if had && has_job t slot then begin
      (* Freezing an in-flight job: it may have carried the minimum. *)
      t.frozen <- t.frozen + 1;
      t.min_valid <- false
    end
  end;
  reschedule t

let execute_slot t ~slot ~kind cycles =
  if cycles < 0 then invalid_arg "Smt_core.execute: negative cycles";
  if cycles > 0 then begin
    if t.rpos.(slot) < 0 then
      invalid_arg "Smt_core.execute: ptid is not runnable";
    if has_job t slot then
      invalid_arg "Smt_core.execute: ptid already has in-flight work";
    advance t;
    let rem = float_of_int cycles in
    if t.njobs = 0 then begin
      t.f.min_rem <- rem;
      t.min_valid <- true
    end
    else if t.min_valid && rem < t.f.min_rem then t.f.min_rem <- rem;
    t.j_kind.(slot) <- kind_index kind;
    t.j_rem.(slot) <- rem;
    t.njobs <- t.njobs + 1;
    (* The core's only job, served at full rate: if nothing else is due
       before it completes, do in place what its completion event would
       do, with no event and no suspension.  No waker is registered, so
       the completion wakes nobody. *)
    let dt = next_dt t in
    if t.njobs = 1 && Sim.skip_to t.sim (Sim.time t.sim + dt) then begin
      advance t;
      reschedule t
    end
    else begin
      schedule_completion t dt;
      if t.j_suspension.(slot) == no_suspension then
        t.j_suspension.(slot) <- Sim.suspension (fun waker -> t.j_resume.(slot) <- waker);
      Sim.suspend t.j_suspension.(slot)
    end
  end

let set_runnable t ~ptid ~weight runnable =
  set_runnable_slot t ~slot:(slot_of t ptid) ~weight runnable

(* Interns only for real work, as [execute_slot] reads no slot otherwise. *)
let execute t ~ptid ~kind cycles =
  execute_slot t ~slot:(if cycles > 0 then slot_of t ptid else -1) ~kind cycles

let runnable_count t = t.rcount

let busy_capacity_cycles t =
  advance t;
  t.f.busy

let work_done t kind =
  advance t;
  t.work.(kind_index kind)

let thread_cycles t ~ptid =
  advance t;
  match Hashtbl.find_opt t.slots ptid with
  | Some s -> t.b_cycles.(s)
  | None -> 0.0

let billed_threads t =
  advance t;
  let acc = ref [] in
  for slot = t.nslots - 1 downto 0 do
    if t.b_flag.(slot) = 1 then acc := (t.s_ptid.(slot), t.b_cycles.(slot)) :: !acc
  done;
  !acc
