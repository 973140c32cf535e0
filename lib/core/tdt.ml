type perms = {
  can_start : bool;
  can_stop : bool;
  can_modify_some : bool;
  can_modify_most : bool;
}

let perms_none =
  { can_start = false; can_stop = false; can_modify_some = false; can_modify_most = false }

let perms_all =
  { can_start = true; can_stop = true; can_modify_some = true; can_modify_most = true }

let perms_of_bits bits =
  if bits < 0 || bits > 0b1111 then invalid_arg "Tdt.perms_of_bits: need 4 bits";
  {
    can_start = bits land 0b1000 <> 0;
    can_stop = bits land 0b0100 <> 0;
    can_modify_some = bits land 0b0010 <> 0;
    can_modify_most = bits land 0b0001 <> 0;
  }

let bits_of_perms p =
  (if p.can_start then 0b1000 else 0)
  lor (if p.can_stop then 0b0100 else 0)
  lor (if p.can_modify_some then 0b0010 else 0)
  lor if p.can_modify_most then 0b0001 else 0

let pp_perms ppf p =
  let bits = bits_of_perms p in
  Format.fprintf ppf "0b%d%d%d%d" ((bits lsr 3) land 1) ((bits lsr 2) land 1)
    ((bits lsr 1) land 1) (bits land 1)

(* The 16 possible permission words, preallocated so that decoding a
   packed entry on the lookup path never builds a fresh record. *)
let perms_of_bits_cached =
  Array.init 16 perms_of_bits

(* An entry is one tagged int: [ptid lsl 4 lor perm-bits], with [-1] as
   "no entry".  vtids are small table indices (Table 1 is a table!), so
   the entries live in a dense vtid-indexed map instead of a Hashtbl. *)
let pack ~ptid bits = (ptid lsl 4) lor bits
let packed_ptid e = e lsr 4
let packed_bits e = e land 0b1111

type t = { table_id : int; entries : Sl_util.Dense.t }

(* Atomic: tables are created from every experiment-runner domain, and a
   torn counter could hand two tables the same id (aliasing TDT-cache
   lines within a chip). *)
let next_id = Atomic.make 0

let create () =
  { table_id = Atomic.fetch_and_add next_id 1 + 1; entries = Sl_util.Dense.create () }

let id t = t.table_id

let set t ~vtid ~ptid perms =
  if vtid < 0 then invalid_arg "Tdt.set: negative vtid";
  if ptid < 0 then invalid_arg "Tdt.set: negative ptid";
  Sl_util.Dense.set t.entries vtid (pack ~ptid (bits_of_perms perms))

let clear t ~vtid = if vtid >= 0 then Sl_util.Dense.set t.entries vtid (-1)

(* Raw translation as one tagged int: [-1] when the vtid is unmapped or
   its permission word is all-zero (an invalid entry per Table 1). *)
let lookup_packed t ~vtid =
  let e = Sl_util.Dense.get t.entries vtid in
  if e < 0 || packed_bits e = 0 then -1 else e
[@@sl.zero_alloc]

let lookup t ~vtid =
  let e = lookup_packed t ~vtid in
  if e < 0 then None
  else Some (packed_ptid e, Array.unsafe_get perms_of_bits_cached (packed_bits e))

let entries t =
  Sl_util.Dense.fold
    (fun vtid e acc ->
      (vtid, packed_ptid e, Array.unsafe_get perms_of_bits_cached (packed_bits e)) :: acc)
    t.entries []

module Cache = struct
  (* One dense vtid-indexed line map per table seen by this core; a core
     touches a handful of tables at most, so the per-table maps live in a
     short linearly-scanned vector. *)
  type cache = {
    mutable tids : int array;             (* table_id per slot *)
    mutable lines : Sl_util.Dense.t array;  (* vtid -> packed entry, -1 = not cached *)
    mutable n : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { tids = [||]; lines = [||]; n = 0; hits = 0; misses = 0 }

  let find_map cache tid =
    let rec go i =
      if i >= cache.n then None
      else if Array.unsafe_get cache.tids i = tid then
        Some (Array.unsafe_get cache.lines i)
      else go (i + 1)
    in
    go 0

  let map_for cache tid =
    match find_map cache tid with
    | Some m -> m
    | None ->
      let m = Sl_util.Dense.create () in
      if cache.n = Array.length cache.tids then begin
        let cap = max 4 (2 * cache.n) in
        let tids = Array.make cap 0 and lines = Array.make cap m in
        Array.blit cache.tids 0 tids 0 cache.n;
        Array.blit cache.lines 0 lines 0 cache.n;
        cache.tids <- tids;
        cache.lines <- lines
      end;
      cache.tids.(cache.n) <- tid;
      cache.lines.(cache.n) <- m;
      cache.n <- cache.n + 1;
      m

  (* Tagged-int twin of [lookup] below: returns [packed * 2 + hit-bit],
     so the hot translate path learns both the entry ([asr 1]; [-1] when
     absent) and hit/miss ([land 1]) from one immediate. *)
  let lookup_packed cache table ~vtid =
    let m = map_for cache table.table_id in
    let cached = Sl_util.Dense.get m vtid in
    if cached >= 0 then begin
      cache.hits <- cache.hits + 1;
      (cached lsl 1) lor 1
    end
    else begin
      cache.misses <- cache.misses + 1;
      let e = lookup_packed table ~vtid in
      (* Only found entries are cached: a miss on an absent/invalid vtid
         stays a miss next time, as in a real fill-on-hit cache. *)
      if e >= 0 then Sl_util.Dense.set m vtid e;
      e lsl 1
    end

  let lookup cache table ~vtid =
    let r = lookup_packed cache table ~vtid in
    let e = r asr 1 in
    let entry =
      if e < 0 then None
      else Some (packed_ptid e, Array.unsafe_get perms_of_bits_cached (packed_bits e))
    in
    (entry, if r land 1 = 1 then `Hit else `Miss)

  let invalidate cache table ~vtid =
    match find_map cache table.table_id with
    | None -> ()
    | Some m -> if vtid >= 0 then Sl_util.Dense.set m vtid (-1)

  let hits cache = cache.hits
  let misses cache = cache.misses
end
