(* Keys and payloads live in parallel unboxed arrays: [times] and [seqs]
   are plain int arrays (no per-entry record, no [Some] box, no boxed
   int64), [payloads] holds the values.  Pushing an event therefore
   allocates nothing once the arrays are warm — the difference between
   this and the previous [entry option array] layout is ~5 words of
   garbage per scheduled event, which dominated the allocation profile
   of the large experiments (see ANALYSIS.md, "Performance accounting").

   Slots at or past [size] hold [dummy] in [payloads]: a popped entry's
   payload must become collectable immediately, so the vacated slot is
   re-seeded rather than left referencing the moved (or removed) value.
   The grow path seeds fresh capacity with [dummy] for the same reason.

   A single packed [time lsl k lor seq] key was considered and rejected:
   [seq] is the caller's monotone counter with no fixed upper bound, so any
   static bit split eventually corrupts the (time, seq) lexicographic
   order.  The comparator instead reads both arrays; the ordering is
   property-tested against the lexicographic reference at the tick
   boundaries (0 and max_int) in test/engine. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { times = [||]; seqs = [||]; payloads = [||]; size = 0; dummy }

let length t = t.size
let is_empty t = t.size = 0

(* (time, seq) at [i] strictly precedes (time, seq) at [j]. *)
let less t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let pl = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- pl

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let capacity' = max 16 (2 * Array.length t.times) in
  let times = Array.make capacity' 0 in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let seqs = Array.make capacity' 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let payloads = Array.make capacity' t.dummy in
  Array.blit t.payloads 0 payloads 0 t.size;
  t.payloads <- payloads

(* [@@sl.zero_alloc]: the warm-path budget.  [grow] itself allocates,
   but amortized doubling runs O(log n) times per experiment; the
   per-event path writes three unboxed slots and sifts in place. *)
let push t ~time ~seq payload =
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- seq;
  t.payloads.(t.size) <- payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)
[@@sl.zero_alloc]

let min_time t =
  assert (t.size > 0);
  t.times.(0)
[@@sl.zero_alloc]

let pop_min t =
  assert (t.size > 0);
  let payload = t.payloads.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.payloads.(0) <- t.payloads.(t.size);
    t.payloads.(t.size) <- t.dummy;
    sift_down t 0
  end
  else t.payloads.(0) <- t.dummy;
  payload
[@@sl.zero_alloc]

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, pop_min t)
  end
