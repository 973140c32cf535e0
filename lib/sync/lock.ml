module Sim = Sl_engine.Sim
module Ivar = Sl_engine.Ivar
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core
module Histogram = Sl_util.Histogram

type kind = Tas | Ticket | Mcs_spin | Mcs_mwait | Park_sw | Park_mwait

let all_kinds = [ Tas; Ticket; Mcs_spin; Mcs_mwait; Park_sw; Park_mwait ]

let kind_name = function
  | Tas -> "tas"
  | Ticket -> "ticket"
  | Mcs_spin -> "mcs.spin"
  | Mcs_mwait -> "mcs.mwait"
  | Park_sw -> "park.sw"
  | Park_mwait -> "park.mwait"

(* Spin backoff cap, in cycles. *)
let spin_cap = 2048

type event =
  | Join of int
  | Grant of int
  | Release of int
  | Park of int
  | Wake of int

(* Where a contended wait is (see "Waits as steps"): the instruction
   in flight, whose end says what the wait does next. *)
type phase =
  | Enter  (* nothing issued yet *)
  | Gap  (* a backoff gap *)
  | Check  (* the read or CAS that checks the lock *)
  | Arm  (* the monitor arm before a park *)
  | Park  (* an mwait round *)
  | Link_gap  (* [mcs_release]'s poll for its successor: the gap... *)
  | Link_check  (* ...and the read *)

(* Per-(lock, thread) state.  The qnode words [grant]/[next] live in
   simulated Memory; the rest is host-side bookkeeping.  [armed] caches
   "this thread has a monitor armed on this lock's wait word", and
   [armed_crashes] invalidates the cache across crash-stops (a crash
   clears the hardware monitor table, so the cached bit would otherwise
   turn the first post-restart park into a park-with-nothing-armed).
   The wait's state is the rest: its phase, the gaps so far, the last
   value read and what ends the wait, and [step], the wait's one step,
   built with the slot. *)
type slot = {
  th : Chip.thread;
  sptid : int;
  mutable count : int;
  mutable armed : bool;
  mutable armed_crashes : int;
  grant : Memory.addr;
  next : Memory.addr;
  mutable grant_seen : int;
  mutable phase : phase;
  mutable iter : int;
  mutable seen : int;
  mutable goal : int;
  mutable step : unit -> Sim.suspension;
}

type t = {
  chip : Chip.t;
  kind : kind;
  word : Memory.addr;
  serving : Memory.addr;
  patience : int option;
  on_event : (event -> unit) option;
  slot_ix : Sl_util.Dense.t;  (* ptid -> index in [slots] *)
  mutable slots : slot array;  (* registered slots first, then filler *)
  mutable nslots : int;
  waiters : (slot * unit Ivar.t) Queue.t;
  mutable owner : int;
  mutable waiting : int;
  mutable handoff_t0 : int;
  mutable next_join : int;
  mutable next_grant : int;
  mutable acquires : int;
  mutable contended : int;
  mutable parks : int;
  mutable wakes : int;
  mutable fifo_dist_sum : int;
  mutable fifo_samples : int;
  handoff : Histogram.t;
}

let create ?patience ?on_event chip kind =
  let m = Chip.memory chip in
  {
    chip;
    kind;
    word = Memory.alloc m 1;
    serving = Memory.alloc m 1;
    patience;
    on_event;
    slot_ix = Sl_util.Dense.create ();
    slots = [||];
    nslots = 0;
    waiters = Queue.create ();
    owner = -1;
    waiting = 0;
    handoff_t0 = -1;
    next_join = 0;
    next_grant = 0;
    acquires = 0;
    contended = 0;
    parks = 0;
    wakes = 0;
    fifo_dist_sum = 0;
    fifo_samples = 0;
    handoff = Histogram.create ();
  }

let owner t = t.owner

(* Event emission keeps the constructor allocation inside the [Some]
   branch so an uninstrumented lock allocates nothing per event. *)
let emit_join t p = match t.on_event with None -> () | Some f -> f (Join p)
let emit_grant t p = match t.on_event with None -> () | Some f -> f (Grant p)
let emit_release t p = match t.on_event with None -> () | Some f -> f (Release p)
let emit_park t p = match t.on_event with None -> () | Some f -> f (Park p)
let emit_wake t p = match t.on_event with None -> () | Some f -> f (Wake p)

(* A check's read, at the end of its issue. *)
let peek t addr = Int64.to_int (Memory.read (Chip.memory t.chip) addr)

(* Whether [s] must arm a monitor on this lock's wait word: not while it
   still has one armed from an earlier acquire.  A crash-stop since
   then cleared the hardware table, so the cache is keyed by the
   thread's crash count.  No crash lands while the arm's cycles run, so
   the cache is set before them. *)
let must_arm s =
  let crashes = Chip.crash_count s.th in
  if s.armed && s.armed_crashes = crashes then false
  else begin
    if s.armed then Sim.count "sync.rearm";
    s.armed <- true;
    s.armed_crashes <- crashes;
    true
  end

(* Capped exponential backoff: the [i]th gap of a spin whose first is
   [first], each twice the last, at most [spin_cap].  Eleven doublings
   take any first gap of 1 or more to the cap, so twelve steps cover
   every [i]. *)
let backoff first i =
  let rec go b i = if i = 0 then b else go (Int.min spin_cap (b * 2)) (i - 1) in
  go first (Int.min i 12)

(* --- Waits as steps ----------------------------------------------------------

   Each contended wait is a declarative spin: checks of the lock, each
   a read or a CAS, with a gap before each retry that is a pure
   function of the gaps so far and the last value read (the backoff
   doubling capped at [spin_cap], or the ticket distance), or, in the
   mwait designs, a park in place of the gap.  It runs as a stepped
   wait ([Sim.wait]): the waiter's fiber suspends once, and each later
   wake runs [step] as the waiter, in the hop that would have resumed
   the fiber, until the check that ends the wait.  The slot holds the
   wait's state, so no step allocates.  ([Park_sw] waits on an ivar,
   never in steps: below it shares its neighbours' arms only to keep
   the matches exhaustive.) *)

let rec step t s =
  let r = Chip.resume_op s.th in
  if r != Sim.finished then r else next t s
[@@sl.zero_alloc]

(* The instruction [s.phase] names is over (or none was issued). *)
and next t s =
  match s.phase with
  | Enter -> (
    match t.kind with
    | Tas | Ticket -> retry t s
    | Mcs_spin | Mcs_mwait -> check t s
    | Park_mwait -> arm_or_check t s t.word
    | Park_sw -> Sim.finished)
  | Gap -> check t s
  | Check -> if checked t s then Sim.finished else retry t s
  | Arm -> ( match t.kind with Park_mwait -> check t s | _ -> park t s)
  | Park -> (
    if Option.is_some t.patience && Chip.mwait_result s.th < 0 then
      Sim.count "sync.park_retry";
    t.wakes <- t.wakes + 1;
    emit_wake t s.sptid;
    match t.kind with Park_mwait -> arm_or_check t s t.word | _ -> check t s)
  | Link_gap -> issue t s Link_check (Atomics.poll_op s.th)
  | Link_check ->
    s.seen <- peek t s.next;
    if s.seen <> 0 then Sim.finished
    else issue t s Link_gap (Chip.exec_op s.th ~kind:Smt_core.Poll 8)
[@@sl.zero_alloc]

(* Issue the wait's next instruction, which [phase] names, and go on at
   once when it is over already. *)
and issue t s phase r =
  s.phase <- phase;
  if r != Sim.finished then r else next t s

and check t s =
  issue t s Check
    (match t.kind with
    | Tas | Park_mwait -> Atomics.rmw_op t.chip s.th
    | Mcs_mwait -> Atomics.read_op s.th
    | Ticket | Mcs_spin | Park_sw -> Atomics.poll_op s.th)

(* The check's commit, at the end of its issue: whether the wait is
   over. *)
and checked t s =
  match t.kind with
  | Tas | Park_mwait -> Atomics.commit_cas t.chip t.word ~expect:0L ~desired:1L
  | Ticket ->
    s.seen <- peek t t.serving;
    s.seen = s.goal
  | Mcs_spin | Mcs_mwait | Park_sw ->
    s.seen <- peek t s.grant;
    s.seen >= s.goal

(* A check that failed: the next gap, or a park. *)
and retry t s =
  match t.kind with
  | Tas | Ticket | Mcs_spin | Park_sw ->
    let gap = gap t s in
    s.iter <- s.iter + 1;
    issue t s Gap (Chip.exec_op s.th ~kind:Smt_core.Poll gap)
  | Mcs_mwait ->
    note_park t s;
    (* Armed before the tail swap published the node; re-armed only
       after a crash. *)
    if must_arm s then issue t s Arm (Chip.monitor_op s.th s.grant) else park t s
  | Park_mwait ->
    note_park t s;
    park t s

and gap t s =
  match t.kind with
  | Tas -> backoff (Chip.params t.chip).Params.cas_cycles s.iter
  (* Backoff proportional to queue distance: a waiter k places back
     cannot be served for at least k critical sections. *)
  | Ticket -> Int.min spin_cap (Int.max 16 ((s.goal - s.seen) * 64))
  | Mcs_spin | Mcs_mwait | Park_mwait | Park_sw -> backoff 32 s.iter

and note_park t s =
  t.parks <- t.parks + 1;
  emit_park t s.sptid

(* Arm before the CAS that decides to park: a release that lands after
   a failed CAS is latched by the armed monitor, so the mwait that
   follows returns instead of missing it. *)
and arm_or_check t s addr =
  if must_arm s then issue t s Arm (Chip.monitor_op s.th addr) else check t s

and park t s =
  issue t s Park
    (match t.patience with
    | None -> Chip.mwait_op s.th ~timed:false ~deadline:0
    | Some patience -> Chip.mwait_op s.th ~timed:true ~deadline:(Sim.now () + patience))

let register t th =
  let m = Chip.memory t.chip in
  let s =
    {
      th;
      sptid = Chip.ptid th;
      count = 0;
      armed = false;
      armed_crashes = 0;
      grant = Memory.alloc m 1;
      next = Memory.alloc m 1;
      grant_seen = 0;
      phase = Enter;
      iter = 0;
      seen = 0;
      goal = 0;
      step = (fun () -> Sim.finished);
    }
  in
  s.step <- (fun () -> step t s);
  let i = t.nslots in
  if i = Array.length t.slots then begin
    let a = Array.make (Int.max 8 (2 * i)) s in
    Array.blit t.slots 0 a 0 i;
    t.slots <- a
  end;
  t.slots.(i) <- s;
  t.nslots <- i + 1;
  Sl_util.Dense.set t.slot_ix s.sptid i;
  s

(* The slot of the thread whose ptid is [p]; it must have one. *)
let slot_at t p = t.slots.(Sl_util.Dense.get t.slot_ix p)

let slot_of t th =
  let i = Sl_util.Dense.get t.slot_ix (Chip.ptid th) in
  if i >= 0 then t.slots.(i) else register t th

(* Run [s]'s contended wait from [phase]. *)
let wait s phase =
  s.phase <- phase;
  s.iter <- 0;
  Sim.wait s.step

let note_join t s =
  let a = t.next_join in
  t.next_join <- a + 1;
  emit_join t s.sptid;
  a

let note_grant t s ~contended =
  t.owner <- s.sptid;
  t.acquires <- t.acquires + 1;
  s.count <- s.count + 1;
  if contended then t.contended <- t.contended + 1;
  if t.handoff_t0 >= 0 then begin
    Histogram.record t.handoff (Sim.now () - t.handoff_t0);
    t.handoff_t0 <- -1
  end;
  let g = t.next_grant in
  t.next_grant <- g + 1;
  g

let note_fifo t a g =
  t.fifo_dist_sum <- t.fifo_dist_sum + abs (g - a);
  t.fifo_samples <- t.fifo_samples + 1

let finish t s ~contended a =
  let g = note_grant t s ~contended in
  note_fifo t a g;
  emit_grant t s.sptid

(* Uncontended TAS / parking-lock acquire: one CAS plus integer
   bookkeeping.  The steady-state path allocates nothing — checked. *)
let fast_path_acquire t s =
  if Atomics.cas t.chip s.th t.word ~expect:0L ~desired:1L then begin
    let a = note_join t s in
    finish t s ~contended:false a;
    true
  end
  else false
[@@sl.zero_alloc]

(* TAS / parking-lock release: the store to the lock word is the wake. *)
let release_word t s =
  t.owner <- -1;
  emit_release t s.sptid;
  if t.waiting > 0 then t.handoff_t0 <- Sim.now ();
  Atomics.write t.chip s.th t.word 0L
[@@sl.zero_alloc]

(* Test-and-set, after a failed first CAS, and the futex-on-mwait
   parking lock, whose waiters arm a monitor on the lock word and
   mwait: the release store is the wake, and every waiter wakes (the
   herd) and retries its CAS. *)
let word_slow t s =
  let a = note_join t s in
  t.waiting <- t.waiting + 1;
  wait s Enter;
  t.waiting <- t.waiting - 1;
  finish t s ~contended:true a

(* --- ticket --- *)

let ticket_acquire t s =
  let my = Int64.to_int (Atomics.fetch_add t.chip s.th t.word 1L) in
  let a = note_join t s in
  let cur = Int64.to_int (Atomics.poll t.chip s.th t.serving) in
  if cur = my then finish t s ~contended:false a
  else begin
    t.waiting <- t.waiting + 1;
    s.goal <- my;
    s.seen <- cur;
    wait s Enter;
    t.waiting <- t.waiting - 1;
    finish t s ~contended:true a
  end

let ticket_release t s =
  t.owner <- -1;
  emit_release t s.sptid;
  if t.waiting > 0 then t.handoff_t0 <- Sim.now ();
  let cur = Atomics.read t.chip s.th t.serving in
  Atomics.write t.chip s.th t.serving (Int64.add cur 1L)

(* --- MCS queue --- *)

(* In mwait mode, arm [th]'s monitor on its grant word unless the arm
   cache says it still holds.  The thread comes in as a parameter, as
   in Condvar.ensure_armed, so the protocol rule reads a call as an arm
   of it. *)
let mcs_arm ~spin th s = if (not spin) && must_arm s then Isa.monitor th s.grant

let mcs_acquire ~spin t s =
  (* Reset our queue node while nobody can see it, and — in mwait mode —
     arm the monitor on our grant word BEFORE the tail swap publishes the
     node.  Arming after publishing would open a lost-wakeup window: the
     predecessor could grant between publish and arm, and the waiter
     would park forever on a wake that already happened. *)
  Atomics.write t.chip s.th s.next 0L;
  mcs_arm ~spin s.th s;
  let prev =
    Int64.to_int (Atomics.exchange t.chip s.th t.serving (Int64.of_int (s.sptid + 1)))
  in
  let a = note_join t s in
  if prev = 0 then finish t s ~contended:false a
  else begin
    t.waiting <- t.waiting + 1;
    let pred = slot_at t (prev - 1) in
    Atomics.write t.chip s.th pred.next (Int64.of_int (s.sptid + 1));
    let target = s.grant_seen + 1 in
    s.goal <- target;
    wait s Enter;
    s.grant_seen <- target;
    t.waiting <- t.waiting - 1;
    finish t s ~contended:true a
  end

let mcs_handoff t s nxt =
  let succ = slot_at t (nxt - 1) in
  t.handoff_t0 <- Sim.now ();
  let g = Atomics.read t.chip s.th succ.grant in
  (* The grant store is the wake when the successor parked in mwait. *)
  Atomics.write t.chip s.th succ.grant (Int64.add g 1L)

let mcs_release t s =
  t.owner <- -1;
  emit_release t s.sptid;
  let nxt = Int64.to_int (Atomics.read t.chip s.th s.next) in
  if nxt <> 0 then mcs_handoff t s nxt
  else if
    Atomics.cas t.chip s.th t.serving ~expect:(Int64.of_int (s.sptid + 1))
      ~desired:0L
  then ()
  else begin
    (* A successor swapped the tail but has not linked itself yet; it is
       one store away, so a brief poll is bounded. *)
    wait s Link_gap;
    mcs_handoff t s s.seen
  end

(* --- software park/unpark baseline --- *)

let sw_block_tax t th =
  let p = Chip.params t.chip in
  let state_cycles =
    (Params.regstate_bytes p ~vector:false + p.Params.ctx_bytes_per_cycle - 1)
    / p.Params.ctx_bytes_per_cycle
  in
  Isa.exec th ~kind:Smt_core.Overhead
    (p.Params.sched_decision_cycles + p.Params.ctx_switch_fixed_cycles + state_cycles)

let sw_resume_tax t th =
  let p = Chip.params t.chip in
  let state_cycles =
    (Params.regstate_bytes p ~vector:false + p.Params.ctx_bytes_per_cycle - 1)
    / p.Params.ctx_bytes_per_cycle
  in
  Isa.exec th ~kind:Smt_core.Overhead
    (p.Params.ctx_switch_fixed_cycles + state_cycles + p.Params.cache_warmup_cycles)

let sw_acquire t s =
  (* The futex fast path still pays for its atomic. *)
  Isa.exec s.th ~kind:Smt_core.Overhead (Chip.params t.chip).Params.cas_cycles;
  let a = note_join t s in
  if t.owner = -1 && Queue.is_empty t.waiters then finish t s ~contended:false a
  else begin
    t.waiting <- t.waiting + 1;
    t.parks <- t.parks + 1;
    emit_park t s.sptid;
    let iv = Ivar.create () in
    Queue.push (s, iv) t.waiters;
    sw_block_tax t s.th;
    Ivar.read iv;
    (* Ownership was reserved for us by the releaser. *)
    t.wakes <- t.wakes + 1;
    emit_wake t s.sptid;
    sw_resume_tax t s.th;
    t.waiting <- t.waiting - 1;
    finish t s ~contended:true a
  end

let sw_release t s =
  emit_release t s.sptid;
  if Queue.is_empty t.waiters then t.owner <- -1
  else begin
    let succ, iv = Queue.pop t.waiters in
    t.handoff_t0 <- Sim.now ();
    (* Reserve ownership for the popped waiter so no barger can slip in
       between the wakeup IPI and the waiter actually running. *)
    t.owner <- succ.sptid;
    let p = Chip.params t.chip in
    Isa.exec s.th ~kind:Smt_core.Overhead
      (p.Params.sched_decision_cycles + p.Params.ipi_cycles);
    Ivar.fill iv ()
  end

(* --- public entry points --- *)

let acquire t th =
  let s = slot_of t th in
  match t.kind with
  | Tas | Park_mwait -> if not (fast_path_acquire t s) then word_slow t s
  | Ticket -> ticket_acquire t s
  | Mcs_spin -> mcs_acquire ~spin:true t s
  | Mcs_mwait -> mcs_acquire ~spin:false t s
  | Park_sw -> sw_acquire t s

let release t th =
  let s = slot_of t th in
  if t.owner <> s.sptid then
    invalid_arg "Sl_sync.Lock.release: caller does not hold the lock";
  match t.kind with
  | Tas | Park_mwait -> release_word t s
  | Ticket -> ticket_release t s
  | Mcs_spin | Mcs_mwait -> mcs_release t s
  | Park_sw -> sw_release t s

type stats = {
  acquires : int;
  contended : int;
  parks : int;
  wakes : int;
  handoff : Histogram.t;
  fifo_distance_mean : float;
  counts : (int * int) list;
  max_count : int;
  min_count : int;
}

let stats t =
  let counts =
    Sl_util.Dense.fold (fun p i acc -> (p, t.slots.(i).count) :: acc) t.slot_ix []
  in
  let max_count = List.fold_left (fun m (_, c) -> Int.max m c) 0 counts in
  let min_count =
    match counts with
    | [] -> 0
    | _ -> List.fold_left (fun m (_, c) -> Int.min m c) max_int counts
  in
  {
    acquires = t.acquires;
    contended = t.contended;
    parks = t.parks;
    wakes = t.wakes;
    handoff = t.handoff;
    fifo_distance_mean =
      (if t.fifo_samples = 0 then 0.0
       else float_of_int t.fifo_dist_sum /. float_of_int t.fifo_samples);
    counts;
    max_count;
    min_count;
  }
