(* SplitMix64's 64-bit state, kept unboxed in 8 bytes: a record's
   [int64] field would box every new state.  Reads and writes go through
   [Bytes.get_int64_ne]/[set_int64_ne], which the compiler keeps
   unboxed inside a function, so a draw allocates nothing but what it
   returns. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: two xor-shift-multiply rounds. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
[@@inline]

let next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state
[@@inline]

let split t =
  let seed = next_int64 t in
  (* Mixing again decorrelates the child stream from the parent's. *)
  create (mix seed)

let float t =
  (* Take the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* Rejection sampling over the low bits to avoid modulo bias: a draw
   whose bucket would run past [Int64.max_int] is drawn again. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.sub bound64 1L) in
  let raw = ref (Int64.shift_right_logical (next_int64 t) 1) in
  let candidate = ref (Int64.rem !raw bound64) in
  while Int64.sub !raw !candidate > limit do
    raw := Int64.shift_right_logical (next_int64 t) 1;
    candidate := Int64.rem !raw bound64
  done;
  Int64.to_int !candidate

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
