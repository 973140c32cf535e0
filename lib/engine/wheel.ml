module Arena = Sl_util.Arena

(* Hierarchical (hashed) timing wheel over 63-bit ticks: a ready ring for
   the cursor's tick, 5 levels of 32 slot chains spanning 2^25 ticks of
   look-ahead, and one far list beyond them.  Every pending event of a
   world lives here, and nothing here knows a sequence number: same-tick
   order is push order because every chain is a FIFO.

   Placement.  [cursor] trails the earliest pending event.  An event at
   [time] (never before the cursor) lands by [x = time lxor cursor]:

     x = 0        -> ready ring (due at the cursor's tick)
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
   occupied level.  A one-node chain is one tick: the cursor goes
   straight to that node's time and the node to the ring.  A longer
   chain *cascades*: the cursor jumps to the slot's base time and the
   chain re-homes in order, the base tick's events into the ring and the
   rest into strictly lower levels (a level-0 slot is all base tick), so
   each event re-homes at most [levels] times.  Neither move touches the
   cursor's bits >= 25, so far events stay far until the levels are
   empty; then the far list is scanned for its minimum, the cursor jumps
   there, and the whole list re-homes in order.

   Order.  Placement is a function of (time, cursor), and each move
   above keeps every event where placement puts it, so the events of one
   tick always share one chain.  Chains only append, and every re-home
   walks a chain head to tail into chains that are empty when it starts,
   so a chain's events of one tick are in push order.  A tick's chain
   reaches the (empty) ring whole, before any event pushed for that tick
   once the cursor is there, so the ring pops in push order too: the
   order of a (time, seq) heap fed a monotone seq, property-tested
   against test/engine's Pqueue.

   Nodes.  Every pending event is one arena node, from its push to its
   pop: the chains link nodes, and the ready ring holds node indices, so
   a re-home into the ring moves an int and the payload stays where its
   push stored it.  Its slot is written twice in the event's life, once
   by the push and once when the pop frees the node and re-seeds it.

   Tags.  Each event carries one int beside its payload, its tag, in
   the node's tag slot; [pop] leaves the popped event's tag in
   [popped].  A tag never touches placement or order.  See DESIGN.md,
   "Event queue v3". *)

let bits = 5
let slot_count = 1 lsl bits  (* 32 *)
let levels = 5
let span = 1 lsl (bits * levels)  (* 2^25 ticks of wheel window *)
let slot_mask = slot_count - 1

(* Chain index of the far list, after the levels*32 slot chains. *)
let far = levels * slot_count

type 'a t = {
  arena : 'a Arena.t;  (* one node per pending event *)
  heads : int array;  (* levels*32 slot chains, then the far list; nil = empty *)
  tails : int array;  (* each chain's last node, where pushes append *)
  occ : int array;  (* per-level occupancy bitmask over slots *)
  mutable cursor : int;  (* trails the earliest pending event; never recedes *)
  (* The ready ring: the nodes of the events at [cursor]'s tick, FIFO,
     [len] of them from [head] in a power-of-two circular buffer. *)
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  mutable popped : int;  (* the tag of the event [pop] returned last *)
}

let create ~dummy =
  {
    arena = Arena.create ~dummy;
    heads = Array.make (far + 1) Arena.nil;
    tails = Array.make (far + 1) Arena.nil;
    occ = Array.make levels 0;
    cursor = 0;
    ring = [||];
    head = 0;
    len = 0;
    popped = 0;
  }

let is_empty t = Arena.live t.arena = 0
let ready t = t.len > 0

(* Re-lay the ring out from index 0 at twice the capacity.  It starts
   empty, so a world that never schedules costs nothing here. *)
let ring_grow t =
  let cap = Array.length t.ring in
  let ring = Array.make (Int.max 8 (2 * cap)) Arena.nil in
  for k = 0 to t.len - 1 do
    ring.(k) <- t.ring.((t.head + k) land (cap - 1))
  done;
  t.ring <- ring;
  t.head <- 0

(* [@@sl.zero_alloc]: the warm-path budget.  [ring_grow] allocates, but
   amortized doubling runs O(log n) times per world; the per-event path
   writes one int into a preallocated array, with no write barrier. *)
let ring_push t node =
  if t.len = Array.length t.ring then ring_grow t;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- node;
  t.len <- t.len + 1
[@@sl.zero_alloc]

(* Freeing the node re-seeds its payload slot with the arena's dummy,
   so a popped payload is collectable as soon as the caller drops it;
   the ring's slot keeps only an int. *)
let pop t =
  let i = t.head in
  let node = t.ring.(i) in
  t.head <- (i + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  t.popped <- Arena.tag t.arena node;
  let x = Arena.payload t.arena node in
  Arena.free t.arena node;
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

(* Append [node] (its [next] already nil) to chain [idx].  [idx] is a
   slot index or [far], in bounds of both arrays by construction. *)
let append t idx node =
  let tail = Array.unsafe_get t.tails idx in
  if tail = Arena.nil then Array.unsafe_set t.heads idx node
  else Arena.set_next t.arena tail node;
  Array.unsafe_set t.tails idx node
[@@sl.zero_alloc]

(* Chain [node], at [time], by [x]: the time's nonzero xor with the
   cursor. *)
let chain_node t node time x =
  if x >= span then append t far node
  else begin
    let level = level_of x in
    let slot = (time lsr (level * bits)) land slot_mask in
    append t ((level * slot_count) + slot) node;
    Array.unsafe_set t.occ level (Array.unsafe_get t.occ level lor (1 lsl slot))
  end
[@@sl.zero_alloc]

let push_tagged t ~time ~tag payload =
  if time < t.cursor then invalid_arg "Wheel.push: time precedes the cursor";
  let node = Arena.alloc t.arena ~time ~tag payload in
  let x = time lxor t.cursor in
  if x = 0 then ring_push t node else chain_node t node time x
[@@sl.zero_alloc]

let push t ~time payload = push_tagged t ~time ~tag:0 payload [@@sl.zero_alloc]

(* Re-home a detached chain against the (just moved) cursor, head to
   tail: the cursor's tick into the ring, everything else by placement. *)
let rec rehome t node =
  if node <> Arena.nil then begin
    let next = Arena.next t.arena node in
    let time = Arena.time t.arena node in
    let x = time lxor t.cursor in
    if x = 0 then ring_push t node
    else begin
      Arena.set_next t.arena node Arena.nil;
      chain_node t node time x
    end;
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

let rec chain_min arena node m =
  if node = Arena.nil then m
  else
    let time = Arena.time arena node in
    chain_min arena (Arena.next arena node) (if time < m then time else m)

(* Detach chain [idx] and return its head. *)
let take t idx =
  let head = t.heads.(idx) in
  t.heads.(idx) <- Arena.nil;
  t.tails.(idx) <- Arena.nil;
  head

(* Every wheel time precedes every far time, so the far list is only
   consulted, and its O(far) minimum scan only paid, once the levels are
   empty.  The jump moves at least the minimum's tick into the ring. *)
let far_jump t ~limit =
  let head = t.heads.(far) in
  if head = Arena.nil then -1
  else begin
    let m = chain_min t.arena head max_int in
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

(* The tick [advance] moves the cursor to for occupied slot [slot] of
   [level], chain [idx].  A one-node chain is one tick, so the cursor
   goes straight to it.  A longer chain cascades from the slot's base
   time: the cursor's bits above the band, the band set to [slot],
   everything below zeroed.  Occupied slots sit strictly above the
   cursor's own band, so either way the cursor only moves forward.  The
   slot's events share the cursor's bits above the band and carry
   [slot] in it, so none precedes the tick, and the slot holds the
   earliest pending events. *)
let[@inline] slot_tick t ~level ~slot idx =
  let head = Array.unsafe_get t.heads idx in
  if head = Array.unsafe_get t.tails idx then Arena.time t.arena head
  else
    let shift = level * bits in
    t.cursor land lnot ((1 lsl (shift + bits)) - 1) lor (slot lsl shift)

(* Nothing moves, so a caller can ask before it decides whether to
   block.  The ready ring's events are at the cursor's tick.  Otherwise
   the lowest occupied slot of the lowest occupied level bounds every
   pending event from below: a one-node chain by its exact time, a
   longer one by its slot's base tick.  With the levels empty, every
   far event differs from the cursor above bit 25, so none precedes the
   cursor's next 2^25 boundary; and the cursor's bits above 25 are not
   all set (a far time exceeds it there), so the tick before that
   boundary does not wrap. *)
let quiet_until t =
  if t.len > 0 then t.cursor - 1
  else
    let level = lowest_level t.occ in
    if level < levels then
      let slot = lowest_set_bit (Array.unsafe_get t.occ level) in
      slot_tick t ~level ~slot ((level * slot_count) + slot) - 1
    else if t.heads.(far) = Arena.nil then max_int
    else t.cursor lor (span - 1)
[@@sl.zero_alloc]

(* Each step either fires the one-node shortcut, cascades one slot into
   strictly lower levels (or, at level 0, wholly into the ring), or jumps
   to the far minimum, so the recursion terminates. *)
let rec advance t ~limit =
  assert (t.len = 0);
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
      rehome t (take t idx);
      if t.len > 0 then tick else advance t ~limit
    end
  end
[@@sl.zero_alloc]
