(* The backing array covers [base, base + length a): the first [set]
   pins [base] at its key, so a table whose keys start high (memory
   addresses begin at the bump allocator's base, 0x1000) doesn't carry a
   dead prefix of default cells — without this, every fresh monitor
   world paid a ~4k-word array for its first armed address.  A later
   [set] below [base] re-blits the array downward; keys below 0 stay
   invalid. *)
type t = { mutable a : int array; mutable base : int; default : int }

let create ?(default = -1) () = { a = [||]; base = 0; default }

(* The bounds test doubles as the absent-key path: keys outside the
   backing window were never set, so they read as the default without
   growing. *)
let get t k =
  let i = k - t.base in
  if i >= 0 && i < Array.length t.a then Array.unsafe_get t.a i else t.default
[@@sl.zero_alloc]

let set t k v =
  if k < 0 then invalid_arg "Dense.set: negative key";
  let n = Array.length t.a in
  let i = k - t.base in
  if n > 0 && i >= 0 && i < n then Array.unsafe_set t.a i v
  else if n = 0 then begin
    t.base <- k;
    t.a <- Array.make 16 t.default;
    Array.unsafe_set t.a 0 v
  end
  else if i >= n then begin
    let cap = Int.max 16 (Int.max (i + 1) (2 * n)) in
    let a = Array.make cap t.default in
    Array.blit t.a 0 a 0 n;
    t.a <- a;
    Array.unsafe_set t.a i v
  end
  else begin
    (* Below the window: rebase so [k] becomes a valid index, doubling
       so a descending key sequence stays amortized O(1). *)
    let nbase = Int.min k (t.base - n) in
    let shift = t.base - nbase in
    let a = Array.make (Int.max 16 (shift + n)) t.default in
    Array.blit t.a 0 a shift n;
    t.a <- a;
    t.base <- nbase;
    Array.unsafe_set t.a (k - nbase) v
  end

let fold f t init =
  let acc = ref init in
  for i = Array.length t.a - 1 downto 0 do
    let v = Array.unsafe_get t.a i in
    if v <> t.default then acc := f (t.base + i) v !acc
  done;
  !acc
