(* The waiter of a table that its owner has not given one. *)
let no_waiter : int -> Memory.addr -> unit = fun _ _ -> ()

(* Struct-of-arrays layout.  A thread is named by the dense [slot] its
   owner got from [register], and all per-thread state lives in parallel
   arrays indexed by that slot — [mwait]/wake/latch on the hot path are
   plain array loads.  A parked slot is a flag, not a closure: the
   table's one [waiter] learns which slot woke.

   Armed (thread, addr) pairs live in a flat arena threaded by two
   intrusive doubly-linked lists per cell: the thread's armed list (in
   arming order, appended at the tail) and the address's watcher list
   (most-recently-armed first, prepended at the head — the delivery
   order {!on_write} has always used).  [-1] is the null link.  The two
   lists are the only index: [arm] finds an armed pair by walking both
   at once, so there is no pair table to keep or to hash into. *)
type t = {
  params : Params.t;
  (* per-slot state *)
  mutable s_core : int array;
  mutable s_pending : int array;  (* latched trigger addr; -1 = none *)
  mutable s_armed_n : int array;
  mutable s_thead : int array;  (* first-armed pair of the slot; -1 *)
  mutable s_ttail : int array;  (* last-armed pair of the slot; -1 *)
  mutable s_parked : int array;  (* 1 = parked in mwait *)
  mutable slots : int;
  (* pair arena *)
  mutable p_addr : int array;
  mutable p_slot : int array;
  mutable p_tprev : int array;
  mutable p_tnext : int array;  (* doubles as the freelist link *)
  mutable p_aprev : int array;
  mutable p_anext : int array;
  mutable free_pair : int;
  mutable pairs : int;  (* arena high-water mark *)
  by_addr : Sl_util.Dense.t;  (* addr -> watcher-list head pair; -1 *)
  core_armed : Sl_util.Dense.t;  (* core_id -> armed count *)
  mutable fault_drop : (unit -> bool) option;
  mutable waiter : int -> Memory.addr -> unit;  (* slot -> written addr *)
}

let create params =
  {
    params;
    s_core = [||];
    s_pending = [||];
    s_armed_n = [||];
    s_thead = [||];
    s_ttail = [||];
    s_parked = [||];
    slots = 0;
    p_addr = [||];
    p_slot = [||];
    p_tprev = [||];
    p_tnext = [||];
    p_aprev = [||];
    p_anext = [||];
    free_pair = -1;
    pairs = 0;
    by_addr = Sl_util.Dense.create ();
    core_armed = Sl_util.Dense.create ~default:0 ();
    fault_drop = None;
    waiter = no_waiter;
  }

let set_fault_hook t f = t.fault_drop <- Some f
let set_waiter t f = t.waiter <- f

let register t ~core_id =
  let s = t.slots in
  if s = Array.length t.s_core then begin
    let cap = Int.max 64 (2 * s) in
    let grow a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 s;
      b
    in
    t.s_core <- grow t.s_core 0;
    t.s_pending <- grow t.s_pending (-1);
    t.s_armed_n <- grow t.s_armed_n 0;
    t.s_thead <- grow t.s_thead (-1);
    t.s_ttail <- grow t.s_ttail (-1);
    t.s_parked <- grow t.s_parked 0
  end;
  t.slots <- s + 1;
  t.s_core.(s) <- core_id;
  t.s_pending.(s) <- -1;
  t.s_armed_n.(s) <- 0;
  t.s_thead.(s) <- -1;
  t.s_ttail.(s) <- -1;
  t.s_parked.(s) <- 0;
  s

let alloc_pair t =
  if t.free_pair >= 0 then begin
    let p = t.free_pair in
    t.free_pair <- t.p_tnext.(p);
    p
  end
  else begin
    let p = t.pairs in
    if p = Array.length t.p_addr then begin
      let cap = Int.max 64 (2 * p) in
      let grow a =
        let b = Array.make cap (-1) in
        Array.blit a 0 b 0 p;
        b
      in
      t.p_addr <- grow t.p_addr;
      t.p_slot <- grow t.p_slot;
      t.p_tprev <- grow t.p_tprev;
      t.p_tnext <- grow t.p_tnext;
      t.p_aprev <- grow t.p_aprev;
      t.p_anext <- grow t.p_anext
    end;
    t.pairs <- p + 1;
    p
  end

let free_pair t p =
  t.p_tnext.(p) <- t.free_pair;
  t.free_pair <- p

let core_armed_count t core_id = Sl_util.Dense.get t.core_armed core_id

let bump_core t core_id delta =
  Sl_util.Dense.set t.core_armed core_id (core_armed_count t core_id + delta)

(* Whether slot [s] has armed [addr]: such a pair sits on both the
   slot's armed list (from [tp]) and the address's watcher list (from
   [ap]), so the two are walked in lockstep and the first to end
   answers no.  The cost is the shorter list: one step for a thread
   arming many fresh addresses (E9) and for a lock word many threads
   watch. *)
let rec is_armed t s addr tp ap =
  tp >= 0 && ap >= 0
  && (t.p_addr.(tp) = addr || t.p_slot.(ap) = s
     || is_armed t s addr t.p_tnext.(tp) t.p_anext.(ap))
[@@sl.zero_alloc]

let arm t s addr =
  if addr < 0 then invalid_arg "Monitor.arm: negative address";
  let watchers = Sl_util.Dense.get t.by_addr addr in
  if not (is_armed t s addr t.s_thead.(s) watchers) then begin
    let p = alloc_pair t in
    t.p_addr.(p) <- addr;
    t.p_slot.(p) <- s;
    (* Append to the thread's armed list (arming order). *)
    t.p_tnext.(p) <- -1;
    t.p_tprev.(p) <- t.s_ttail.(s);
    if t.s_ttail.(s) >= 0 then t.p_tnext.(t.s_ttail.(s)) <- p
    else t.s_thead.(s) <- p;
    t.s_ttail.(s) <- p;
    t.s_armed_n.(s) <- t.s_armed_n.(s) + 1;
    bump_core t t.s_core.(s) 1;
    (* Prepend to the address's watcher list (most-recent-first). *)
    t.p_aprev.(p) <- -1;
    t.p_anext.(p) <- watchers;
    if watchers >= 0 then t.p_aprev.(watchers) <- p;
    Sl_util.Dense.set t.by_addr addr p
  end

let unlink_addr t p =
  let prev = t.p_aprev.(p) and next = t.p_anext.(p) in
  if prev >= 0 then t.p_anext.(prev) <- next
  else Sl_util.Dense.set t.by_addr t.p_addr.(p) next;
  if next >= 0 then t.p_aprev.(next) <- prev

let disarm_all t s =
  let p = ref t.s_thead.(s) in
  while !p >= 0 do
    let next = t.p_tnext.(!p) in
    unlink_addr t !p;
    free_pair t !p;
    p := next
  done;
  bump_core t t.s_core.(s) (-t.s_armed_n.(s));
  t.s_thead.(s) <- -1;
  t.s_ttail.(s) <- -1;
  t.s_armed_n.(s) <- 0

let armed t s =
  (* Walk the thread list backwards so consing yields arming order. *)
  let acc = ref [] in
  let p = ref t.s_ttail.(s) in
  while !p >= 0 do
    acc := t.p_addr.(!p) :: !acc;
    p := t.p_tprev.(!p)
  done;
  !acc

(* Deliver straight off the watcher list, most recently armed first.
   Nothing a delivery runs arms or disarms (the waiter's contract, see
   monitor.mli; the fault hook only draws), so the list holds still
   during the walk. *)
let on_write t addr _value =
  let p = ref (Sl_util.Dense.get t.by_addr addr) in
  while !p >= 0 do
    let s = t.p_slot.(!p) in
    (* Fault injection: a dropped delivery loses this one write for
       this one watcher — neither wake nor latch happens, exactly the
       lost-wakeup hardware failure.  A later write still wakes. *)
    let dropped =
      match t.fault_drop with Some f -> f () | None -> false
    in
    if not dropped then begin
      if t.s_parked.(s) = 1 then begin
        t.s_parked.(s) <- 0;
        t.waiter s addr
      end
      else if
        (* Latch the first trigger; later ones coalesce, as a level-
           triggered doorbell would. *)
        t.s_pending.(s) < 0
      then t.s_pending.(s) <- addr
    end;
    p := t.p_anext.(!p)
  done

let attach t memory = Memory.add_write_hook memory (on_write t)

(* Tagged-int mwait: the latched trigger address ([>= 0], consumed — the
   thread does not block), or [-1] after parking the slot. *)
let mwait t s =
  let pending = t.s_pending.(s) in
  if pending >= 0 then begin
    t.s_pending.(s) <- -1;
    pending
  end
  else begin
    if t.s_parked.(s) = 1 then invalid_arg "Monitor.mwait: thread already parked";
    t.s_parked.(s) <- 1;
    -1
  end

let cancel_wait t s = t.s_parked.(s) <- 0

let take_waiter t s =
  let parked = t.s_parked.(s) = 1 in
  t.s_parked.(s) <- 0;
  parked

let has_waiter t s = t.s_parked.(s) = 1

let relatch t s addr =
  if t.s_parked.(s) = 1 then begin
    (* The thread already re-parked: deliver the event now. *)
    t.s_parked.(s) <- 0;
    t.waiter s addr
  end
  else if t.s_pending.(s) < 0 then t.s_pending.(s) <- addr

let write_scan_cost t core_id =
  let armed = core_armed_count t core_id in
  let over = armed - t.params.Params.monitor_capacity_per_core in
  if over > 0 then over * t.params.Params.monitor_overflow_scan_cycles else 0
[@@sl.zero_alloc]
