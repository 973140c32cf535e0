module Arena = Sl_util.Arena

(* Hierarchical (hashed) timing wheel over 63-bit ticks: 5 levels of 32
   slots, spanning 2^25 ticks of look-ahead, with two small binary heaps
   bolted on — a *front* heap that funnels every pop, and an *overflow*
   heap for events beyond the wheel's window (far-future deadlines and
   the [Time.max_tick] park sentinel).

   Placement.  [cursor] trails the earliest pending event.  An event at
   [time] lands by [x = time lxor cursor]:

     x = 0 or time <= cursor   -> front heap (already due)
     x < 2^25                  -> level (msb x / 5), slot (time >> 5l) & 31
     x >= 2^25                 -> overflow heap

   The xor rule is the *windowed* wheel: an event's level is the highest
   5-bit band in which its time differs from the cursor, so all events in
   level l share every bit above 5(l+1) with the cursor, and a level-0
   slot holds exactly one tick.  Levels are time-ordered end to end
   (every level-l time precedes every level-(l+1) time), so the next
   event is always in the lowest occupied level, found by per-level
   32-bit occupancy masks.

   Advancing.  When the front heap runs dry, [ensure_front] cascades: it
   jumps the cursor to the base time of the lowest occupied slot of the
   lowest occupied level, then either transfers that slot (level 0: one
   exact tick) into the front heap or re-homes its chain into strictly
   lower levels — each node re-homes at most [levels] times over its
   life, and the wheel's slot chains live in a flat {!Sl_util.Arena} so
   none of this allocates.  Cascades never touch bits >= 25 of the
   cursor, so overflow promotion is only needed when the wheel itself is
   empty and the cursor jumps to the overflow minimum; promotion then
   drains every overflow event that landed inside the new window
   (overflow times outside the window are provably later than every
   event inside it, so checking successive minima is complete).

   Determinism.  Every pop goes through the front heap, which orders by
   exact (time, seq) — the wheel only ever moves *whole future slots*
   into it, and slots never split a tick, so the pop sequence is the
   lexicographic (time, seq) order, bit-identical to the plain binary
   heap this replaces (property-tested against it in test/engine).
   Same-tick events therefore batch through the front heap in canonical
   seq order however they were distributed over levels beforehand.

   Cost.  Push is O(1) (arena node + occupancy bit, or a push into a
   heap that stays small); pop is O(log front) where the front heap
   holds only the current tick batch plus late inserts — against the
   binary heap's O(log pending), which degraded every near-term op to
   ~20 sift levels once thousands of far-future events (parked deadline
   waits) shared the one heap.  See DESIGN.md, "Event queue v2". *)

let bits = 5
let slot_count = 1 lsl bits  (* 32 *)
let levels = 5
let span = 1 lsl (bits * levels)  (* 2^25 ticks of wheel window *)
let slot_mask = slot_count - 1

type 'a t = {
  front : 'a Pqueue.t;  (* events with time <= cursor; every pop's source *)
  overflow : 'a Pqueue.t;  (* events beyond the window; min promoted on jump *)
  arena : 'a Arena.t;  (* slot-chain nodes for everything in the wheel *)
  heads : int array;  (* levels*32 chain heads into [arena]; Arena.nil = empty *)
  occ : int array;  (* per-level occupancy bitmask over slots *)
  mutable cursor : int;  (* trails the earliest pending event; never recedes *)
}

let create ~dummy =
  {
    front = Pqueue.create ~dummy;
    overflow = Pqueue.create ~dummy;
    arena = Arena.create ~dummy;
    heads = Array.make (levels * slot_count) Arena.nil;
    occ = Array.make levels 0;
    cursor = 0;
  }

let length t =
  Pqueue.length t.front + Arena.live t.arena + Pqueue.length t.overflow

let is_empty t = length t = 0

(* Level of a nonzero in-window xor: index of its highest 5-bit band. *)
let level_of x =
  if x < 1 lsl bits then 0
  else if x < 1 lsl (2 * bits) then 1
  else if x < 1 lsl (3 * bits) then 2
  else if x < 1 lsl (4 * bits) then 3
  else 4
[@@sl.zero_alloc]

(* Chain an existing arena node into the slot its time dictates.
   Precondition: time > cursor and (time lxor cursor) < span. *)
let chain_node t node =
  let time = Arena.time t.arena node in
  let level = level_of (time lxor t.cursor) in
  let slot = (time lsr (level * bits)) land slot_mask in
  (* [slot] is masked to 5 bits and [level] < 5, so [idx] is in bounds
     of the 160-entry heads array by construction. *)
  let idx = (level * slot_count) + slot in
  Arena.set_next t.arena node (Array.unsafe_get t.heads idx);
  Array.unsafe_set t.heads idx node;
  Array.unsafe_set t.occ level (Array.unsafe_get t.occ level lor (1 lsl slot))
[@@sl.zero_alloc]

(* [@@sl.zero_alloc]: the warm-path budget — an arena slot (amortized
   growth aside) or a push into one of the two heaps, which share
   Pqueue's budget. *)
let push t ~time ~seq payload =
  if time <= t.cursor then Pqueue.push t.front ~time ~seq payload
  else if time lxor t.cursor >= span then
    Pqueue.push t.overflow ~time ~seq payload
  else chain_node t (Arena.alloc t.arena ~time ~seq payload)
[@@sl.zero_alloc]

(* Drain overflow events that fall inside the window around the (just
   moved) cursor.  Overflow minima outside the window bound everything
   behind them, so the loop stops at the first non-promotable event. *)
let promote_overflow t =
  while
    (not (Pqueue.is_empty t.overflow))
    && Pqueue.min_time t.overflow lxor t.cursor < span
  do
    let time = Pqueue.min_time t.overflow in
    let seq = Pqueue.min_seq t.overflow in
    let payload = Pqueue.pop_min t.overflow in
    if time <= t.cursor then Pqueue.push t.front ~time ~seq payload
    else chain_node t (Arena.alloc t.arena ~time ~seq payload)
  done

(* Index of the lowest set bit of a 32-bit occupancy mask in constant
   time: isolate the bit, multiply by a de Bruijn sequence, read the
   position off the top 5 bits.  This runs on every cursor advance, and
   the naive scan-from-zero loop averaged half the slot width. *)
let debruijn32 = 0x077CB531

(* Immutable (so safely shared across domains) byte table of the 32 bit
   positions, indexed by the de Bruijn hash. *)
let ctz_table =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let lowest_set_bit mask =
  let lsb = mask land -mask in
  (* The hash needs the 32-bit wrap-around product, so truncate before
     taking the top five bits — OCaml ints don't wrap at 32. *)
  Char.code (String.unsafe_get ctz_table ((lsb * debruijn32 land 0xFFFFFFFF) lsr 27))
[@@sl.zero_alloc]

(* Refill the front heap from the wheel (or overflow) if it is dry and
   events remain.  Each iteration either transfers a level-0 slot (one
   exact tick) into the front heap, re-homes a higher-level slot into
   strictly lower levels, or jumps the cursor to the overflow minimum —
   so the loop terminates and leaves the earliest pending event at the
   front heap's root. *)
let ensure_front t =
  while
    Pqueue.is_empty t.front
    && (Arena.live t.arena > 0 || not (Pqueue.is_empty t.overflow))
  do
    if Arena.live t.arena = 0 then begin
      (* Wheel dry: jump to the far future.  Promotion moves at least the
         overflow minimum (its xor with the new cursor is 0: front). *)
      t.cursor <- Pqueue.min_time t.overflow;
      promote_overflow t
    end
    else begin
      let level = ref 0 in
      while t.occ.(!level) = 0 do
        incr level
      done;
      let level = !level in
      let slot = lowest_set_bit t.occ.(level) in
      let idx = (level * slot_count) + slot in
      let shift = level * bits in
      (* Base time of the slot: cursor's bits above the band, the band
         itself set to [slot], everything below zeroed.  Occupied slots
         sit strictly above the cursor's own band (see the placement
         invariant), so the cursor only moves forward. *)
      let base =
        t.cursor land lnot ((1 lsl (shift + bits)) - 1) lor (slot lsl shift)
      in
      t.cursor <- base;
      let chain = t.heads.(idx) in
      t.heads.(idx) <- Arena.nil;
      t.occ.(level) <- t.occ.(level) land lnot (1 lsl slot);
      if level = 0 then begin
        (* The slot is exactly one tick: everything goes to the front
           heap, which restores canonical seq order within the tick. *)
        let node = ref chain in
        while !node <> Arena.nil do
          let n = !node in
          node := Arena.next t.arena n;
          Pqueue.push t.front ~time:(Arena.time t.arena n)
            ~seq:(Arena.seq t.arena n)
            (Arena.payload t.arena n);
          Arena.free t.arena n
        done
      end
      else begin
        (* Re-home the chain: every node's xor with the new cursor is now
           confined below this level's band.  Nodes move in place — no
           arena churn — except the slot-base tick itself, which is due. *)
        let node = ref chain in
        while !node <> Arena.nil do
          let n = !node in
          node := Arena.next t.arena n;
          if Arena.time t.arena n = t.cursor then begin
            Pqueue.push t.front ~time:(Arena.time t.arena n)
              ~seq:(Arena.seq t.arena n)
              (Arena.payload t.arena n);
            Arena.free t.arena n
          end
          else chain_node t n
        done
      end
    end
  done

let min_time t =
  ensure_front t;
  Pqueue.min_time t.front

let min_seq t =
  ensure_front t;
  Pqueue.min_seq t.front

let pop_min t =
  ensure_front t;
  Pqueue.pop_min t.front
[@@sl.zero_alloc]
