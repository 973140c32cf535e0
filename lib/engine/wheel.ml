(* Hierarchical (hashed) timing wheel over 63-bit ticks: a ready chain
   for the cursor's tick, 5 levels of 32 slot chains spanning 2^25 ticks
   of look-ahead, and one far list beyond them.  Every pending event of a
   world lives here, and nothing here knows a sequence number: same-tick
   order is push order because every chain is a FIFO.

   Placement.  [cursor] trails the earliest pending event.  An event at
   [time] (never before the cursor) lands by [x = time lxor cursor]:

     x = 0        -> ready chain (due at the cursor's tick)
     x < 2^25     -> level (msb x / 5), slot (time >> 5l) & 31
     x >= 2^25    -> far list

   The xor rule is the *windowed* wheel: an event's level is the highest
   5-bit band in which its time differs from the cursor, so all events in
   level l share every bit above 5(l+1) with the cursor, and a level-0
   slot holds exactly one tick.  Levels are time-ordered end to end
   (every level-l time precedes every level-(l+1) time, and every wheel
   time precedes every far time), so the next event is always in the
   lowest occupied level, found by per-level 32-bit occupancy masks.

   Advancing.  [advance] takes the lowest occupied slot of the lowest
   occupied level.  A level-0 slot and a one-node chain each hold one
   tick: the cursor goes to that tick and the (empty) ready chain takes
   the slot's chain whole.  A longer chain higher up *cascades*: the
   cursor jumps to the slot's base time and the chain re-homes in order,
   the base tick's events onto the ready chain and the rest into strictly
   lower levels, so each event re-homes at most [levels] times.  Neither
   move touches the cursor's bits >= 25, so far events stay far until the
   levels are empty; then the far list is scanned for its minimum, the
   cursor jumps there, and the whole list re-homes in order.

   Order.  Placement is a function of (time, cursor), and each move
   above keeps every event where placement puts it, so the events of one
   tick always share one chain.  Chains only append, and every re-home
   walks a chain head to tail into chains that are empty when it starts,
   so a chain's events of one tick are in push order.  A tick's chain
   reaches the (empty) ready chain whole, before any event pushed for
   that tick once the cursor is there, so the ready chain pops in push
   order too: the order of a (time, seq) heap fed a monotone seq,
   property-tested against test/engine's Pqueue.

   Nodes.  Every pending event is one node, from its push to its pop: a
   time, a [next] link, a tag and a payload at one index of four parallel
   columns, recycled through a freelist threaded through [next].  The
   chains link nodes, so a move rewrites links and the payload stays
   where its push stored it.  Its slot is written twice in the event's
   life, once by the push and once when the pop frees the node and
   re-seeds it with [dummy], so a popped payload is collectable as soon
   as the caller drops it.

   Tags.  Each event carries one int beside its payload, its tag, in
   the node's tag slot; [pop] leaves the popped event's tag in
   [popped].  A tag never touches placement or order.  See DESIGN.md,
   "Event queue v4". *)

let bits = 5
let slot_count = 1 lsl bits  (* 32 *)
let levels = 5
let span = 1 lsl (bits * levels)  (* 2^25 ticks of wheel window *)
let slot_mask = slot_count - 1

(* Chain indices after the levels*32 slot chains: the far list, then the
   ready chain. *)
let far = levels * slot_count
let ready_chain = far + 1

(* Chain terminator and freelist terminator; never a node index. *)
let nil = -1

type 'a t = {
  heads : int array;  (* slot chains, far list, ready chain; nil = empty *)
  tails : int array;  (* each chain's last node, where pushes append *)
  occ : int array;  (* per-level occupancy bitmask over slots *)
  mutable cursor : int;  (* trails the earliest pending event; never recedes *)
  (* The nodes, one index across four columns, doubled together. *)
  mutable times : int array;
  mutable next : int array;  (* chain link, or freelist link once freed *)
  mutable tags : int array;
  mutable payloads : 'a array;
  mutable high : int;  (* nodes ever handed out; [high..capacity) untouched *)
  mutable free : int;  (* freelist head, or nil *)
  mutable popped : int;  (* the tag of the event [pop] returned last *)
  dummy : 'a;
}

let create ~dummy =
  {
    heads = Array.make (ready_chain + 1) nil;
    tails = Array.make (ready_chain + 1) nil;
    occ = Array.make levels 0;
    cursor = 0;
    times = [||];
    next = [||];
    tags = [||];
    payloads = [||];
    high = 0;
    free = nil;
    popped = 0;
    dummy;
  }

let ready t = Array.unsafe_get t.heads ready_chain <> nil [@@sl.zero_alloc]

(* [a]'s first [len] elements at the front of a fresh array of
   [capacity], the rest [fill]. *)
let extend a ~len ~capacity fill =
  let b = Array.make capacity fill in
  Array.blit a 0 b 0 len;
  b

(* A node index holding [time], [tag] and [payload], its [next] nil.
   [@@sl.zero_alloc]: the warm-path budget.  The columns' doubling
   allocates, but runs O(log n) times per world; the per-node path pops
   the freelist (or bumps [high]) and writes four slots. *)
let alloc t ~time ~tag payload =
  let i =
    if t.free <> nil then begin
      let i = t.free in
      t.free <- Array.unsafe_get t.next i;
      i
    end
    else begin
      let len = t.high in
      if len = Array.length t.times then begin
        let capacity = Int.max 16 (2 * len) in
        t.times <- extend t.times ~len ~capacity 0;
        t.next <- extend t.next ~len ~capacity nil;
        t.tags <- extend t.tags ~len ~capacity 0;
        t.payloads <- extend t.payloads ~len ~capacity t.dummy
      end;
      t.high <- len + 1;
      len
    end
  in
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.next i nil;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.payloads i payload;
  i
[@@sl.zero_alloc]

(* Unlink the ready chain's head, read its tag and payload, and free it:
   the freed slot is re-seeded with [dummy] and joins the freelist.
   Node indices come from [alloc] and the columns never shrink, so the
   bounds checks are elided. *)
let pop t =
  let node = Array.unsafe_get t.heads ready_chain in
  let next = Array.unsafe_get t.next node in
  Array.unsafe_set t.heads ready_chain next;
  if next = nil then Array.unsafe_set t.tails ready_chain nil;
  t.popped <- Array.unsafe_get t.tags node;
  let x = Array.unsafe_get t.payloads node in
  Array.unsafe_set t.payloads node t.dummy;
  Array.unsafe_set t.next node t.free;
  t.free <- node;
  x
[@@sl.zero_alloc]

let popped_tag t = t.popped

(* Level of a nonzero in-window xor: index of its highest 5-bit band. *)
let level_of x =
  if x < 1 lsl bits then 0
  else if x < 1 lsl (2 * bits) then 1
  else if x < 1 lsl (3 * bits) then 2
  else if x < 1 lsl (4 * bits) then 3
  else 4
[@@sl.zero_alloc]

(* Append [node] (its [next] already nil) to chain [idx], a slot index,
   [far] or [ready_chain]: in bounds of both arrays by construction. *)
let append t idx node =
  let tail = Array.unsafe_get t.tails idx in
  if tail = nil then Array.unsafe_set t.heads idx node
  else Array.unsafe_set t.next tail node;
  Array.unsafe_set t.tails idx node
[@@sl.zero_alloc]

(* Chain [node], at [time], by [x]: the time's xor with the cursor. *)
let chain_node t node time x =
  if x = 0 then append t ready_chain node
  else if x >= span then append t far node
  else begin
    let level = level_of x in
    let slot = (time lsr (level * bits)) land slot_mask in
    append t ((level * slot_count) + slot) node;
    Array.unsafe_set t.occ level (Array.unsafe_get t.occ level lor (1 lsl slot))
  end
[@@sl.zero_alloc]

let push_tagged t ~time ~tag payload =
  if time < t.cursor then invalid_arg "Wheel.push: time precedes the cursor";
  chain_node t (alloc t ~time ~tag payload) time (time lxor t.cursor)
[@@sl.zero_alloc]

let push t ~time payload = push_tagged t ~time ~tag:0 payload [@@sl.zero_alloc]

(* Re-home a detached chain against the (just moved) cursor, head to
   tail, by placement: the cursor's tick onto the ready chain. *)
let rec rehome t node =
  if node <> nil then begin
    let next = Array.unsafe_get t.next node in
    let time = Array.unsafe_get t.times node in
    Array.unsafe_set t.next node nil;
    chain_node t node time (time lxor t.cursor);
    rehome t next
  end
[@@sl.zero_alloc]

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

let rec chain_min t node m =
  if node = nil then m
  else
    let time = t.times.(node) in
    chain_min t t.next.(node) (if time < m then time else m)

(* Detach chain [idx] and return its head. *)
let take t idx =
  let head = t.heads.(idx) in
  t.heads.(idx) <- nil;
  t.tails.(idx) <- nil;
  head

(* Every wheel time precedes every far time, so the far list is only
   consulted, and its O(far) minimum scan only paid, once the levels are
   empty.  The jump moves at least the minimum's tick onto the ready
   chain. *)
let far_jump t ~limit =
  let head = t.heads.(far) in
  if head = nil then -1
  else begin
    let m = chain_min t head max_int in
    if m > limit then -1
    else begin
      t.cursor <- m;
      rehome t (take t far);
      m
    end
  end

(* The lowest level with an occupied slot, or [levels] if none. *)
let lowest_level occ =
  let level = ref 0 in
  while !level < levels && Array.unsafe_get occ !level = 0 do
    incr level
  done;
  !level
[@@sl.zero_alloc]

let is_empty t =
  (not (ready t)) && lowest_level t.occ = levels && t.heads.(far) = nil

(* The tick [advance] moves the cursor to for occupied slot [slot] of
   [level], chain [idx].  A one-node chain is one tick, so the cursor
   goes straight to it.  A longer chain cascades from the slot's base
   time: the cursor's bits above the band, the band set to [slot],
   everything below zeroed (at level 0, the chain's one tick).  Occupied
   slots sit strictly above the cursor's own band, so either way the
   cursor only moves forward.  The slot's events share the cursor's bits
   above the band and carry [slot] in it, so none precedes the tick, and
   the slot holds the earliest pending events. *)
let[@inline] slot_tick t ~level ~slot idx =
  let head = Array.unsafe_get t.heads idx in
  if head = Array.unsafe_get t.tails idx then Array.unsafe_get t.times head
  else
    let shift = level * bits in
    t.cursor land lnot ((1 lsl (shift + bits)) - 1) lor (slot lsl shift)

(* Nothing moves, so a caller can ask before it decides whether to
   block.  The ready chain's events are at the cursor's tick.  Otherwise
   the lowest occupied slot of the lowest occupied level bounds every
   pending event from below: a one-node chain by its exact time, a
   longer one by its slot's base tick.  With the levels empty, every
   far event differs from the cursor above bit 25, so none precedes the
   cursor's next 2^25 boundary; and the cursor's bits above 25 are not
   all set (a far time exceeds it there), so the tick before that
   boundary does not wrap. *)
let quiet_until t =
  if ready t then t.cursor - 1
  else
    let level = lowest_level t.occ in
    if level < levels then
      let slot = lowest_set_bit (Array.unsafe_get t.occ level) in
      slot_tick t ~level ~slot ((level * slot_count) + slot) - 1
    else if t.heads.(far) = nil then max_int
    else t.cursor lor (span - 1)
[@@sl.zero_alloc]

(* Each step either hands a one-tick chain (a level-0 slot or a single
   node) to the ready chain whole, cascades one slot into strictly lower
   levels, or jumps to the far minimum, so the recursion terminates. *)
let rec advance t ~limit =
  assert (not (ready t));
  let occ = t.occ in
  let level = lowest_level occ in
  if level = levels then far_jump t ~limit
  else begin
    let slot = lowest_set_bit occ.(level) in
    let idx = (level * slot_count) + slot in
    let tick = slot_tick t ~level ~slot idx in
    if tick > limit then -1
    else begin
      occ.(level) <- occ.(level) land lnot (1 lsl slot);
      t.cursor <- tick;
      if level = 0 || Array.unsafe_get t.heads idx = Array.unsafe_get t.tails idx
      then begin
        t.tails.(ready_chain) <- t.tails.(idx);
        t.heads.(ready_chain) <- take t idx;
        tick
      end
      else begin
        rehome t (take t idx);
        if ready t then tick else advance t ~limit
      end
    end
  end
[@@sl.zero_alloc]
