module Sim = Sl_engine.Sim

type kind = Useful | Poll | Overhead

let kind_index = function Useful -> 0 | Poll -> 1 | Overhead -> 2

(* Hot-path note: [advance]/[reschedule] run on every runnability change
   and every [execute], so with N runnable threads a boot storm that arms
   N monitors is N calls touching N jobs each.  Per-thread state is laid
   out struct-of-arrays, indexed by a dense [slot]: in-flight work lives
   in unboxed [j_rem]/[j_kind] parallel arrays (serving a job is two
   array stores, no [float ref] cell or record field to chase),
   billing in an unboxed [b_cycles] array, and water-filling reads the
   runnable array in place, keeping its rates and caps by runnable
   position in two reusable arrays ([srate]/[scapped]) instead of
   freshly consed lists.

   Slots are handed out densely by [add_slot], never raw ptids: ptids
   are sparse sentinels in places (the flexsc worker is 777_777,
   hypervisors are 9_000), and sizing the dense arrays by the raw ptid
   would allocate megabytes per core for a handful of threads.  Every
   caller keeps the slot it was given ([Chip] in each thread's record),
   so there is no ptid table to consult; the ptid is only the label
   that [billed_threads] reports.

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

   Determinism: per-job service is computed independently of runnable
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
  mutable s_ptid : int array;  (* each slot's ptid, for [billed_threads] *)
  mutable nslots : int;
  (* In-flight jobs, dense by slot: [j_kind.(s) = -1] means no job. *)
  mutable j_kind : int array;
  mutable j_rem : float array;  (* cycles of service still owed *)
  (* Completion cells: the executing thread's waker is parked in
     [j_resume.(parking)] by the core's one [suspension] and woken when
     the job finishes.  Sound because nothing yields between [execute]'s
     reschedule and its suspend, so a completion can never fire before
     its reader registers. *)
  mutable j_resume : Sim.waker array;
  mutable parking : int;  (* the slot whose thread is suspending *)
  mutable suspension : Sim.suspension;
  mutable njobs : int;
  mutable rpos : int array;  (* slot -> index in rslot/rweight; -1 *)
  mutable rslot : int array;  (* runnable slots, compact prefix [0, rcount) *)
  mutable rweight : float array;  (* weight of rslot.(i) *)
  mutable rcount : int;
  mutable last_update : Sim.Time.t;
  mutable epoch : int;  (* tags completion events; bumps invalidate them *)
  mutable fire : unit -> unit;  (* the completion event, see [schedule_completion] *)
  f : floats;
  work : float array;  (* indexed by kind *)
  (* Billing, dense by slot.  Every served share is positive, so a slot
     has been billed exactly when its sum is. *)
  mutable b_cycles : float array;
  (* Water-filling's rates and caps by runnable position, valid from
     [compute_rates] to the end of the computation using them; empty
     until water-filling first runs. *)
  mutable srate : float array;
  mutable scapped : bool array;
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

(* Grow every slot-indexed array to cover [slot].  Slots are handed out
   densely, so this only ever doubles — never jumps to a sparse ptid. *)
let ensure_slot t slot =
  let n = Array.length t.j_kind in
  if slot >= n then begin
    let cap = Int.max (slot + 1) (2 * n) in
    let grow a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 n;
      b
    in
    t.s_ptid <- grow t.s_ptid (-1);
    t.j_kind <- grow t.j_kind (-1);
    t.j_rem <- grow t.j_rem 0.0;
    t.j_resume <- grow t.j_resume (Sim.no_waker t.sim);
    t.rpos <- grow t.rpos (-1);
    t.b_cycles <- grow t.b_cycles 0.0
  end

let add_slot t ~ptid =
  let s = t.nslots in
  t.nslots <- s + 1;
  ensure_slot t s;
  t.s_ptid.(s) <- ptid;
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

(* Weighted processor sharing with per-thread rate cap 1.0: water-filling
   over the runnable array in place.  Fills [srate.(i)] for every
   runnable position [i] whose slot holds a job, the [n = njobs -
   frozen] active jobs.  A position with no job starts out capped, so
   no round counts it.  Plain loops, no closures and no call: each
   round sums the uncapped weights highest index first, then caps every
   thread whose share of the remaining capacity reaches 1.0, until a
   round caps none.  The last round's sum is the final total, since
   nothing is capped after it.  The float operations and their order
   are fixed: test/core's reference model checks every rate bit for
   bit.  [srate] and [scapped] start empty and grow here, doubling, so
   only a core that water-fills holds them. *)
let compute_rates t =
  let count = t.rcount in
  if Array.length t.srate < count then begin
    let cap = Int.max count (2 * Array.length t.srate) in
    t.srate <- Array.make cap 0.0;
    t.scapped <- Array.make cap false
  end;
  let n = t.njobs - t.frozen and srate = t.srate in
  if n <= t.params.Params.smt_width then
    for i = 0 to count - 1 do
      srate.(i) <- 1.0
    done
  else begin
    let width = float_of_int t.params.Params.smt_width in
    let rweight = t.rweight and scapped = t.scapped in
    for i = 0 to count - 1 do
      scapped.(i) <- t.j_kind.(t.rslot.(i)) < 0
    done;
    let capacity = ref width and total = ref 0.0 and uncapped = ref n in
    let settling = ref true in
    while !settling do
      total := 0.0;
      for i = count - 1 downto 0 do
        if not scapped.(i) then total := !total +. rweight.(i)
      done;
      let overflow = ref 0 in
      if !uncapped > 0 && !total > 0.0 then
        for i = 0 to count - 1 do
          if (not scapped.(i)) && !capacity *. rweight.(i) /. !total >= 1.0 then begin
            scapped.(i) <- true;
            incr overflow
          end
        done;
      if !overflow > 0 then begin
        capacity := !capacity -. float_of_int !overflow;
        uncapped := !uncapped - !overflow
      end
      else settling := false
    done;
    let residual = width -. float_of_int (n - !uncapped) in
    for i = 0 to count - 1 do
      srate.(i) <- (if scapped.(i) then 1.0 else residual *. rweight.(i) /. !total)
    done
  end
[@@sl.zero_alloc]

(* The rate of every job when nothing is frozen and every runnable weight
   is 1.0: water-filling's closed form.  n unit weights sum exactly to
   [float n], no job is capped and the residual is exactly [width], so
   [compute_rates] would give each job [width *. 1.0 /. float n] — this
   value, bit for bit (1.0 when n fits the width).  Inlined, because a
   float returned from a call is boxed. *)
let[@inline] unit_rate t =
  let width = t.params.Params.smt_width in
  if t.njobs <= width then 1.0 else float_of_int width /. float_of_int t.njobs

(* Serve [elapsed] cycles to every active job in one pass that calls
   nothing, and return the jobs it served down, linked in pass order
   through [j_kind]: each holds the next finished slot, and [-2] ends
   the list (an empty one is [-2]).  A finished slot is never visited
   again in the pass, and [complete_finished] retires the list before
   anything else reads [j_kind].

   Both paths walk the runnable array highest index first and serve
   each position whose slot holds a job, so same-advance completions
   keep one order.  Uniform path: with nothing frozen and every
   runnable weight 1.0 every job runs at [unit_rate], with no
   water-filling; otherwise a job runs at the rate [compute_rates]
   stored at its position.  The split and every field the loop reads
   are taken once, before it; [busy], the work of each kind and the
   least remaining stay in locals, billing is written out inline, and
   the served amount is a plain comparison — [Float.min] calls
   [caml_signbit_float].  The loops index without bounds checks: [i]
   stays below [rcount], which [srate] covers once [compute_rates] has
   run, and every slot array covers each slot [add_slot] handed out
   ([ensure_slot]).  Each accumulator takes its additions in pass
   order, as the completions do.  With no job in flight nothing is
   served, and the minimum is invalid. *)
let serve t elapsed =
  let uniform = t.frozen = 0 && t.nonunit = 0 in
  if t.njobs > 0 && not uniform then compute_rates t;
  let elapsed = float_of_int elapsed in
  let j_kind = t.j_kind and j_rem = t.j_rem and b_cycles = t.b_cycles in
  let busy = ref t.f.busy and live_min = ref infinity in
  let useful = ref t.work.(0) and poll = ref t.work.(1) and overhead = ref t.work.(2) in
  let first = ref (-2) and last = ref (-2) in
  let rslot = t.rslot in
  if t.njobs = 0 then ()
  else if uniform then begin
    let share = elapsed *. unit_rate t in
    for i = t.rcount - 1 downto 0 do
      let slot = Array.unsafe_get rslot i in
      let kind = Array.unsafe_get j_kind slot in
      if kind >= 0 then begin
        let rem = Array.unsafe_get j_rem slot in
        let served = if rem < share then rem else share in
        let left = rem -. served in
        Array.unsafe_set j_rem slot left;
        busy := !busy +. served;
        if kind = 0 then useful := !useful +. served
        else if kind = 1 then poll := !poll +. served
        else overhead := !overhead +. served;
        Array.unsafe_set b_cycles slot (Array.unsafe_get b_cycles slot +. served);
        if left > 1e-6 then begin
          if left < !live_min then live_min := left
        end
        else begin
          Array.unsafe_set j_kind slot (-2);
          if !last < 0 then first := slot else Array.unsafe_set j_kind !last slot;
          last := slot
        end
      end
    done
  end
  else begin
    let srate = t.srate in
    for i = t.rcount - 1 downto 0 do
      let slot = Array.unsafe_get rslot i in
      let kind = Array.unsafe_get j_kind slot in
      if kind >= 0 then begin
        let rem = Array.unsafe_get j_rem slot in
        let share = elapsed *. Array.unsafe_get srate i in
        let served = if rem < share then rem else share in
        let left = rem -. served in
        Array.unsafe_set j_rem slot left;
        busy := !busy +. served;
        if kind = 0 then useful := !useful +. served
        else if kind = 1 then poll := !poll +. served
        else overhead := !overhead +. served;
        Array.unsafe_set b_cycles slot (Array.unsafe_get b_cycles slot +. served);
        if left > 1e-6 then begin
          if left < !live_min then live_min := left
        end
        else begin
          Array.unsafe_set j_kind slot (-2);
          if !last < 0 then first := slot else Array.unsafe_set j_kind !last slot;
          last := slot
        end
      end
    done
  end;
  t.f.busy <- !busy;
  t.work.(0) <- !useful;
  t.work.(1) <- !poll;
  t.work.(2) <- !overhead;
  if t.frozen = 0 then begin
    t.f.min_rem <- !live_min;
    t.min_valid <- !live_min < infinity
  end
  else t.min_valid <- false;
  !first
[@@sl.zero_alloc]

(* Retire the finished jobs [serve] linked from [slot], in pass order,
   and wake each one's thread.  A wake only queues the thread's
   continuation at the current instant, so the wakes are queued in the
   order the pass served the jobs down. *)
let rec complete_finished t slot =
  if slot >= 0 then begin
    let next = t.j_kind.(slot) in
    t.j_kind.(slot) <- -1;
    t.njobs <- t.njobs - 1;
    let w = t.j_resume.(slot) and none = Sim.no_waker t.sim in
    if w != none then begin
      t.j_resume.(slot) <- none;
      Sim.wake w
    end;
    complete_finished t next
  end
[@@sl.zero_alloc]

(* Deliver service for the time elapsed since the last update, completing
   any jobs that finished.  When no time has passed nothing can have
   finished either — every in-flight job still owes > 1e-6 cycles
   ([execute] admits only positive work and finished jobs are removed the
   moment they are served down) — so the whole pass is skipped.  Only
   jobs served just now can finish (frozen jobs owe > 1e-6 by the same
   invariant). *)
let advance t =
  let now = Sim.time t.sim in
  let elapsed = now - t.last_update in
  t.last_update <- now;
  if elapsed > 0 then complete_finished t (serve t elapsed)

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
   served.  The general path takes one ceiling, of the least remaining
   time: ceil and the floor at 1 are monotone, so that is the least of
   the jobs' own ceilings.  Precondition: a job is in flight. *)
let next_dt t =
  if t.frozen = 0 && t.nonunit = 0 && t.min_valid then next_unit_weight_dt t
  else begin
    compute_rates t;
    let next = ref infinity in
    for i = t.rcount - 1 downto 0 do
      let slot = t.rslot.(i) and rate = t.srate.(i) in
      if has_job t slot && rate > 0.0 then begin
        let dt = t.j_rem.(slot) /. rate in
        if dt < !next then next := dt
      end
    done;
    if !next < infinity then begin
      let dt = Float.ceil !next in
      if dt < 1.0 then 1 else int_of_float dt
    end
    else -1
  end

(* Schedule the next completion event [dt] cycles from now (none if
   [dt < 0]), invalidating older ones.  Every completion event is the
   core's one [fire], tagged with the epoch it was scheduled in: a stale
   one still pops, finds the epoch moved on and stands down, so nothing
   is allocated per event.  With no job in flight there is nothing to
   schedule or scan. *)
let schedule_completion t dt =
  t.epoch <- t.epoch + 1;
  if dt >= 0 then Sim.schedule_tagged t.sim ~at:(Sim.time t.sim + dt) ~tag:t.epoch t.fire
[@@sl.zero_alloc]

let reschedule t = schedule_completion t (if t.njobs > 0 then next_dt t else -1)

let create sim params ~core_id =
  let t =
    {
      sim;
      params;
      core_id;
      s_ptid = Array.make 16 (-1);
      nslots = 0;
      j_kind = Array.make 16 (-1);
      j_rem = Array.make 16 0.0;
      j_resume = Array.make 16 (Sim.no_waker sim);
      parking = -1;
      suspension = Sim.no_suspension;
      njobs = 0;
      rpos = Array.make 16 (-1);
      rslot = Array.make 16 0;
      rweight = Array.make 16 0.0;
      rcount = 0;
      last_update = 0;
      epoch = 0;
      fire = ignore;
      f = { busy = 0.0; min_rem = infinity };
      work = Array.make 3 0.0;
      b_cycles = Array.make 16 0.0;
      srate = [||];
      scapped = [||];
      frozen = 0;
      nonunit = 0;
      min_valid = false;
    }
  in
  t.suspension <- Sim.suspension (fun waker -> t.j_resume.(t.parking) <- waker);
  t.fire <-
    (fun () ->
      if Sim.event_tag t.sim = t.epoch then begin
        advance t;
        reschedule t
      end);
  t

let core_id t = t.core_id

let set_runnable t ~slot ~weight runnable =
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

let admit t ~slot ~kind cycles =
  if cycles < 0 then invalid_arg "Smt_core.execute: negative cycles";
  if cycles = 0 then Sim.finished
  else begin
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
      reschedule t;
      Sim.finished
    end
    else begin
      schedule_completion t dt;
      t.parking <- slot;
      t.suspension
    end
  end

let execute t ~slot ~kind cycles =
  let s = admit t ~slot ~kind cycles in
  if s != Sim.finished then Sim.suspend s

(* A spinner's idle gaps in one call.  With no job on the core and the
   slot runnable, an [execute] of [gap] is the core's only job at
   full rate, so it continues inline exactly when its end is at most
   the quiet tick, and then leaves the core as it found it, bar the
   sums, the clock and the epoch.  Every such gap, k of them back to
   back, is served here.  Each accumulator gets its k additions of
   [gap] one by one, as the k executes would make them: one addition of
   k·gap rounds differently once a sum holds a fraction or passes 2^53.
   The fields the executes would leave behind are set once: the served
   slot owes 0.0, the minimum is invalid, and the epoch has moved k
   times.  The loop keeps the three sums in locals, so no float is
   boxed. *)
let serve_lone_gaps t ~slot ~kind gap =
  if gap > 0 && t.njobs = 0 && t.rpos.(slot) >= 0 then begin
    let now = Sim.time t.sim in
    let quiet = Sim.quiet_until t.sim in
    if quiet > now && quiet - now >= gap then begin
      let k = (quiet - now) / gap in
      let at = now + (k * gap) in
      if Sim.skip_to t.sim at then begin
        let g = float_of_int gap and kind = kind_index kind in
        let busy = ref t.f.busy and work = ref t.work.(kind) in
        let billed = ref t.b_cycles.(slot) in
        for _ = 1 to k do
          busy := !busy +. g;
          work := !work +. g;
          billed := !billed +. g
        done;
        t.f.busy <- !busy;
        t.work.(kind) <- !work;
        t.b_cycles.(slot) <- !billed;
        t.j_rem.(slot) <- 0.0;
        t.f.min_rem <- infinity;
        t.min_valid <- false;
        t.epoch <- t.epoch + k;
        t.last_update <- at
      end
    end
  end
[@@sl.zero_alloc]

let runnable_count t = t.rcount

let busy_capacity_cycles t =
  advance t;
  t.f.busy

let work_done t kind =
  advance t;
  t.work.(kind_index kind)

let thread_cycles t ~slot =
  advance t;
  t.b_cycles.(slot)

let billed_threads t =
  advance t;
  let acc = ref [] in
  for slot = t.nslots - 1 downto 0 do
    if t.b_cycles.(slot) > 0.0 then acc := (t.s_ptid.(slot), t.b_cycles.(slot)) :: !acc
  done;
  !acc
