(* Flat node arena for int-keyed, intrusively chained event records.

   Nodes live in parallel unboxed arrays — one int key ([time]), one
   int [next] link, one int [tag] carried for the owner, and one payload
   slot — so allocating a node on a warm arena writes four array slots
   and touches no OCaml allocator at all.  [next] chains nodes into
   whatever structure the owner maintains (the timing wheel threads
   per-slot lists through it); [nil] terminates a chain and doubles as
   the freelist terminator.

   Freed slots are recycled through an intrusive freelist threaded through
   [next], and the vacated payload slot is re-seeded with [dummy]
   immediately: a popped event's closure must become collectable the
   moment it is handed out, not when the slot happens to be reused (the
   same discipline as test/engine's reference heap). *)

type 'a t = {
  mutable times : int array;
  mutable next : int array;
  mutable tags : int array;
  mutable payloads : 'a array;
  mutable high : int;  (* slots ever handed out; [high..cap) untouched *)
  mutable free : int;  (* freelist head threaded through [next], or nil *)
  mutable live : int;  (* allocated and not yet freed *)
  dummy : 'a;
}

let nil = -1

let create ~dummy =
  {
    times = [||];
    next = [||];
    tags = [||];
    payloads = [||];
    high = 0;
    free = nil;
    live = 0;
    dummy;
  }

let live t = t.live

let grow t =
  let capacity' = Int.max 16 (2 * Array.length t.times) in
  let times = Array.make capacity' 0 in
  Array.blit t.times 0 times 0 t.high;
  t.times <- times;
  let next = Array.make capacity' nil in
  Array.blit t.next 0 next 0 t.high;
  t.next <- next;
  let tags = Array.make capacity' 0 in
  Array.blit t.tags 0 tags 0 t.high;
  t.tags <- tags;
  let payloads = Array.make capacity' t.dummy in
  Array.blit t.payloads 0 payloads 0 t.high;
  t.payloads <- payloads

(* [@@sl.zero_alloc]: the warm-path budget.  [grow] allocates, but
   amortized doubling runs O(log n) times over an arena's lifetime; the
   per-node path pops the freelist (or bumps [high]) and writes four
   unboxed slots. *)
let alloc t ~time ~tag payload =
  let i =
    if t.free <> nil then begin
      let i = t.free in
      t.free <- t.next.(i);
      i
    end
    else begin
      if t.high = Array.length t.times then grow t;
      let i = t.high in
      t.high <- t.high + 1;
      i
    end
  in
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.next i nil;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.payloads i payload;
  t.live <- t.live + 1;
  i
[@@sl.zero_alloc]

(* Accessors take arena-issued indices, in bounds by construction (an
   index is only valid between [alloc] and [free], and the arrays never
   shrink), so the bounds checks are elided. *)
let time t i = Array.unsafe_get t.times i [@@sl.zero_alloc]
let next t i = Array.unsafe_get t.next i [@@sl.zero_alloc]
let tag t i = Array.unsafe_get t.tags i [@@sl.zero_alloc]
let payload t i = Array.unsafe_get t.payloads i [@@sl.zero_alloc]
let set_next t i n = Array.unsafe_set t.next i n [@@sl.zero_alloc]

let free t i =
  Array.unsafe_set t.payloads i t.dummy;
  Array.unsafe_set t.next i t.free;
  t.free <- i;
  t.live <- t.live - 1
[@@sl.zero_alloc]
