type addr = int

(* Words live in [int64 array]s indexed by address, so a store is a
   bounds check and one array write instead of the old hash + bucket
   walk.  OCaml boxes the [int64]s of such an array: each slot holds a
   pointer, so a store of a computed value allocates its 3-word box at
   the caller (a constant such as [0L] is shared).  The address space is split at the bump
   allocator's base: everything {!alloc} hands out is dense from
   [heap_base], so [heap] is indexed by [addr - heap_base] and never
   carries a 4096-word dead prefix; the handful of small test-constant
   addresses below the base land in the tiny [low] array.  Both arrays
   start empty and grow on first write — a fresh world that never
   stores (or stores little) costs a few words, not a 64 KB slab, which
   matters because experiments build thousands of short-lived worlds.
   Unwritten words read as [0L], which is exactly the fresh-array
   default, so growth needs no initialization pass beyond
   [Array.make]. *)
let heap_base = 0x1000

type t = {
  mutable low : int64 array;  (* addrs in [0, heap_base) *)
  mutable heap : int64 array;  (* addr - heap_base, bump-allocated region *)
  mutable next_free : addr;
  mutable hooks : (addr -> int64 -> unit) array;  (* registration order *)
  mutable writes : int;
}

let create () =
  { low = [||]; heap = [||]; next_free = heap_base; hooks = [||]; writes = 0 }

let alloc t n =
  if n <= 0 then invalid_arg "Memory.alloc: non-positive size";
  let base = t.next_free in
  t.next_free <- t.next_free + n;
  base

let read t addr =
  if addr >= heap_base then begin
    let i = addr - heap_base in
    if i < Array.length t.heap then Array.unsafe_get t.heap i else 0L
  end
  else if addr >= 0 && addr < Array.length t.low then
    Array.unsafe_get t.low addr
  else 0L

let grow src i =
  let cap = max (i + 1) (max 512 (2 * Array.length src)) in
  let cells = Array.make cap 0L in
  Array.blit src 0 cells 0 (Array.length src);
  cells

(* Hooks live in a registration-order array: [write] is the simulator's
   single hottest choke point (every store by every thread lands here),
   so the notification loop must not allocate — a cons-list in reverse
   registration order would force a [List.rev] per store. *)
let write t addr v =
  if addr >= heap_base then begin
    let i = addr - heap_base in
    if i >= Array.length t.heap then t.heap <- grow t.heap i;
    Array.unsafe_set t.heap i v
  end
  else begin
    if addr < 0 then invalid_arg "Memory.write: negative address";
    if addr >= Array.length t.low then t.low <- grow t.low addr;
    Array.unsafe_set t.low addr v
  end;
  t.writes <- t.writes + 1;
  let hooks = t.hooks in
  for i = 0 to Array.length hooks - 1 do
    (Array.unsafe_get hooks i) addr v
  done

let add_write_hook t hook = t.hooks <- Array.append t.hooks [| hook |]

let write_count t = t.writes
