(* The reference model of [Sl_sync.Lock]: the same six designs with
   every wait written as a plain loop in the waiter's fiber, one fiber
   switch per blocked spin iteration or herd wake.  [Lock] runs these
   waits as steps of a stepped wait ([Sim.wait]); test_sync runs random
   worlds on both and requires the same grants, statistics, events,
   clock and stuck processes. *)

module Sim = Sl_engine.Sim
module Ivar = Sl_engine.Ivar
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Params = Switchless.Params
module Smt_core = Switchless.Smt_core
module Histogram = Sl_util.Histogram
module Atomics = Sl_sync.Atomics
module Lock = Sl_sync.Lock

type kind = Lock.kind = Tas | Ticket | Mcs_spin | Mcs_mwait | Park_sw | Park_mwait

(* Spin backoff cap, in cycles. *)
let spin_cap = 2048

type event = Lock.event =
  | Join of int
  | Grant of int
  | Release of int
  | Park of int
  | Wake of int

(* Per-(lock, thread) state.  The qnode words [grant]/[next] live in
   simulated Memory; the rest is host-side bookkeeping.  [armed] caches
   "this thread has a monitor armed on this lock's wait word", and
   [armed_crashes] invalidates the cache across crash-stops (a crash
   clears the hardware monitor table, so the cached bit would otherwise
   turn the first post-restart park into a park-with-nothing-armed). *)
type slot = {
  th : Chip.thread;
  sptid : int;
  mutable count : int;
  mutable armed : bool;
  mutable armed_crashes : int;
  grant : Memory.addr;
  next : Memory.addr;
  mutable grant_seen : int;
}

type t = {
  chip : Chip.t;
  kind : kind;
  word : Memory.addr;
  serving : Memory.addr;
  patience : int option;
  on_event : (event -> unit) option;
  slots : (int, slot) Hashtbl.t;
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
    slots = Hashtbl.create 64;
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
    }
  in
  Hashtbl.replace t.slots s.sptid s;
  s

let slot_of t th =
  match Hashtbl.find t.slots (Chip.ptid th) with
  | s -> s
  | exception Not_found -> register t th

(* Arm a monitor on [addr] unless this thread still has one armed from an
   earlier acquire.  A crash-stop since then cleared the hardware table,
   so the cache is keyed by the thread's crash count. *)
let ensure_armed s addr =
  let crashes = Chip.crash_count s.th in
  if (not s.armed) || s.armed_crashes <> crashes then begin
    if s.armed && s.armed_crashes <> crashes then Sim.count "sync.rearm";
    Isa.monitor s.th addr;
    s.armed <- true;
    s.armed_crashes <- crashes
  end

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

(* --- test-and-set --- *)

let tas_slow t s =
  let a = note_join t s in
  t.waiting <- t.waiting + 1;
  let backoff = ref (Chip.params t.chip).Params.cas_cycles in
  let rec loop () =
    Isa.exec s.th ~kind:Smt_core.Poll !backoff;
    backoff := min spin_cap (!backoff * 2);
    if not (Atomics.cas t.chip s.th t.word ~expect:0L ~desired:1L) then loop ()
  in
  loop ();
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
    let rec loop cur =
      if cur <> my then begin
        (* Backoff proportional to queue distance: a waiter k places back
           cannot be served for at least k critical sections. *)
        Isa.exec s.th ~kind:Smt_core.Poll (min spin_cap (max 16 ((my - cur) * 64)));
        loop (Int64.to_int (Atomics.poll t.chip s.th t.serving))
      end
    in
    loop cur;
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

let mcs_wait_spin t s ~target =
  let backoff = ref 32 in
  while
    Int64.to_int (Atomics.poll t.chip s.th s.grant) < target
  do
    Isa.exec s.th ~kind:Smt_core.Poll !backoff;
    backoff := min spin_cap (!backoff * 2)
  done

let mcs_wait_mwait t s ~target =
  while
    Int64.to_int (Atomics.read t.chip s.th s.grant) < target
  do
    t.parks <- t.parks + 1;
    emit_park t s.sptid;
    ensure_armed s s.grant;
    (match t.patience with
    | None -> ignore (Isa.mwait s.th : Memory.addr)
    | Some patience -> (
      match Isa.mwait_for s.th ~deadline:(Sim.now () + patience) with
      | Some _ -> ()
      | None -> Sim.count "sync.park_retry"));
    t.wakes <- t.wakes + 1;
    emit_wake t s.sptid
  done

let mcs_acquire ~spin t s =
  (* Reset our queue node while nobody can see it, and — in mwait mode —
     arm the monitor on our grant word BEFORE the tail swap publishes the
     node.  Arming after publishing would open a lost-wakeup window: the
     predecessor could grant between publish and arm, and the waiter
     would park forever on a wake that already happened. *)
  Atomics.write t.chip s.th s.next 0L;
  if not spin then ensure_armed s s.grant;
  let prev =
    Int64.to_int (Atomics.exchange t.chip s.th t.serving (Int64.of_int (s.sptid + 1)))
  in
  let a = note_join t s in
  if prev = 0 then finish t s ~contended:false a
  else begin
    t.waiting <- t.waiting + 1;
    let pred = Hashtbl.find t.slots (prev - 1) in
    Atomics.write t.chip s.th pred.next (Int64.of_int (s.sptid + 1));
    let target = s.grant_seen + 1 in
    if spin then mcs_wait_spin t s ~target else mcs_wait_mwait t s ~target;
    s.grant_seen <- target;
    t.waiting <- t.waiting - 1;
    finish t s ~contended:true a
  end

let mcs_handoff t s nxt =
  let succ = Hashtbl.find t.slots (nxt - 1) in
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
    let rec wait_link () =
      let n = Int64.to_int (Atomics.poll t.chip s.th s.next) in
      if n = 0 then begin
        Isa.exec s.th ~kind:Smt_core.Poll 8;
        wait_link ()
      end
      else n
    in
    mcs_handoff t s (wait_link ())
  end

(* --- parking (futex-on-mwait) --- *)

let park_slow t s =
  let a = note_join t s in
  t.waiting <- t.waiting + 1;
  let rec loop () =
    (* Arm before the CAS that decides to park: a release that lands
       after our failed CAS is latched by the armed monitor, so the
       subsequent mwait returns instead of missing it. *)
    ensure_armed s t.word;
    if not (Atomics.cas t.chip s.th t.word ~expect:0L ~desired:1L) then begin
      t.parks <- t.parks + 1;
      emit_park t s.sptid;
      (match t.patience with
      | None -> ignore (Isa.mwait s.th : Memory.addr)
      | Some patience -> (
        match Isa.mwait_for s.th ~deadline:(Sim.now () + patience) with
        | Some _ -> ()
        | None -> Sim.count "sync.park_retry"));
      t.wakes <- t.wakes + 1;
      emit_wake t s.sptid;
      loop ()
    end
  in
  loop ();
  t.waiting <- t.waiting - 1;
  finish t s ~contended:true a

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
  | Tas -> if not (fast_path_acquire t s) then tas_slow t s
  | Park_mwait -> if not (fast_path_acquire t s) then park_slow t s
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

type stats = Lock.stats = {
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
    Hashtbl.fold (fun p s acc -> (p, s.count) :: acc) t.slots []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let max_count = List.fold_left (fun m (_, c) -> max m c) 0 counts in
  let min_count =
    match counts with
    | [] -> 0
    | _ -> List.fold_left (fun m (_, c) -> min m c) max_int counts
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
