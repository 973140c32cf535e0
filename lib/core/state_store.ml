type tier = Register_file | L2 | L3 | Dram

let tier_name = function
  | Register_file -> "RF"
  | L2 -> "L2"
  | L3 -> "L3"
  | Dram -> "DRAM"

let pp_tier ppf tier = Format.pp_print_string ppf (tier_name tier)

let tier_index = function Register_file -> 0 | L2 -> 1 | L3 -> 2 | Dram -> 3
let tier_of_index = function
  | 0 -> Register_file
  | 1 -> L2
  | 2 -> L3
  | _ -> Dram

(* Entries are intrusively linked into a per-tier recency list (see [t]),
   so eviction never scans the whole table.  [prev]/[next] are physical
   links; an unlinked entry points to itself. *)
type entry = {
  ptid : int;
  bytes : int;
  mutable tier : tier;
  mutable last_touch : int;
  mutable pinned : bool;
  mutable prev : entry;
  mutable next : entry;
}

type corruption = Ecc_corrected | Silent

(* Each tier keeps its resident entries on a circular doubly-linked list
   threaded through the entries themselves, sorted by recency:
   [sent.next] is the most recently touched, [sent.prev] the coldest.
   [last_touch] ticks are globally unique and monotone, so the sort order
   is total and the coldest unpinned entry is simply the first unpinned
   entry walking back from the tail — the same victim the previous
   whole-table minimum scan selected, found in O(1) instead of O(n) per
   eviction.  Freshly-touched entries go to the head directly; only moves
   that keep an old tick (demotion, pin/wake promotion) need a sorted
   insert, and those walk from the tail, which is short for the cold
   entries demotion deals in. *)
type t = {
  params : Params.t;
  (* No ptid table: the owner of a context keeps the [entry] that
     [register] returned and passes it on every later call, so a wake
     reaches its context without a lookup.  The recency lists are the
     only index, and [check] walks them. *)
  mutable registered : int;  (* entries admitted so far *)
  used : int array;  (* bytes per tier; index by tier_index *)
  recency : entry array;  (* per-tier list sentinel; index by tier_index *)
  mutable clock : int;  (* recency counter *)
  transfers : int array;  (* wake transfers served per tier *)
  mutable demotions : int;
  mutable fault : (ptid:int -> corruption option) option;
}

(* A fresh self-linked entry of no context in the Dram tier: the Dram
   list's sentinel, and what an owner with no context holds.  The one
   record here that has no other to borrow its links from, so the one
   [let rec]. *)
let placeholder () =
  let rec sent =
    {
      ptid = min_int;
      bytes = 0;
      tier = Dram;
      last_touch = max_int;
      pinned = false;
      prev = sent;
      next = sent;
    }
  in
  sent

(* [dram]'s twin in another tier.  It borrows [dram]'s links until it
   exists: a self-linked [let rec] would build it twice. *)
let make_sentinel tier ~dram =
  let sent = { dram with tier } in
  sent.prev <- sent;
  sent.next <- sent;
  sent

let create params =
  let dram = placeholder () in
  {
    params;
    registered = 0;
    used = Array.make 4 0;
    recency =
      [|
        make_sentinel Register_file ~dram;
        make_sentinel L2 ~dram;
        make_sentinel L3 ~dram;
        dram;
      |];
    clock = 0;
    transfers = Array.make 4 0;
    demotions = 0;
    fault = None;
  }

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev;
  e.prev <- e;
  e.next <- e

(* Link [e] as the most-recent entry of its tier.  Only valid when
   [e.last_touch] is the newest tick in the store (every caller has just
   refreshed it), which keeps the list sorted without scanning. *)
let link_mru t e =
  let sent = t.recency.(tier_index e.tier) in
  e.prev <- sent;
  e.next <- sent.next;
  sent.next.prev <- e;
  sent.next <- e

(* Link [e] into its tier's list at the position its (old) tick dictates.
   Walks from both ends at once: a demotion victim is typically the
   *warmest* entry of the tier it lands in (it was merely the coldest of
   the tier above, and everything below was demoted earlier), while a
   promoted-with-old-tick context is the *coldest* of the tier it joins.
   A single-ended walk is O(1) for one case and O(tier population) for
   the other — which made every round-robin wake over a large thread set
   walk the whole L2 list.  The
   two-pointer scan costs 2·min(distance-from-warm, distance-from-cold)
   links, O(1) for both common cases, and lands [e] in exactly the slot
   the cold-end walk chose ([last_touch] ticks are globally unique, so
   the sorted position is unambiguous).

   Invariant of [scan sent e warm cold]: every entry strictly warm-side
   of [warm] has a newer tick than [e]; every entry strictly cold-side of
   [cold] has an older one.  The sentinel's [max_int] tick keeps the warm
   test from firing at the list head, so an empty segment resolves
   through the cold arm. *)
let rec scan sent e warm cold =
  if warm.last_touch < e.last_touch then begin
    (* [e] is warmer than [warm] and colder than everything before it:
       insert immediately before [warm]. *)
    e.next <- warm;
    e.prev <- warm.prev;
    warm.prev.next <- e;
    warm.prev <- e
  end
  else if cold == sent || cold.last_touch > e.last_touch then begin
    (* [e] is colder than [cold] (or the list segment is exhausted):
       insert immediately after [cold]. *)
    e.prev <- cold;
    e.next <- cold.next;
    cold.next.prev <- e;
    cold.next <- e
  end
  else scan sent e warm.next cold.prev
[@@sl.zero_alloc]

let link_by_recency t e =
  let sent = t.recency.(tier_index e.tier) in
  scan sent e sent.next sent.prev
[@@sl.zero_alloc]

let set_fault_hook t f = t.fault <- Some f

let capacity_bytes t = function
  | Register_file -> t.params.Params.rf_capacity_bytes
  | L2 -> t.params.Params.l2_state_capacity_bytes
  | L3 -> t.params.Params.l3_state_capacity_bytes
  | Dram -> max_int

let used_bytes t tier = t.used.(tier_index tier)

let transfer_cycles t = function
  | Register_file -> 0
  | L2 -> t.params.Params.l2_transfer_cycles
  | L3 -> t.params.Params.l3_transfer_cycles
  | Dram -> t.params.Params.dram_transfer_cycles

let free_bytes t tier =
  if tier = Dram then max_int else capacity_bytes t tier - used_bytes t tier

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The first unpinned entry from [pos] toward the warm end, or [sent]
   (which is not pinned). *)
let rec unpinned_from sent pos =
  if pos == sent || not pos.pinned then pos else unpinned_from sent pos.prev
[@@sl.zero_alloc]

(* Coldest unpinned entry currently resident in [tier]: first unpinned
   entry from the cold end of the recency list, or the tier's sentinel
   when every resident entry is pinned (or there is none). *)
let coldest t tier =
  let sent = t.recency.(tier_index tier) in
  unpinned_from sent sent.prev
[@@sl.zero_alloc]

let move t e tier =
  unlink e;
  t.used.(tier_index e.tier) <- t.used.(tier_index e.tier) - e.bytes;
  e.tier <- tier;
  t.used.(tier_index tier) <- t.used.(tier_index tier) + e.bytes;
  link_by_recency t e
[@@sl.zero_alloc]

(* Demote cold entries out of [tier] until [bytes] fit, cascading down. *)
let rec make_room t tier bytes =
  if tier <> Dram && bytes > capacity_bytes t tier then
    invalid_arg "State_store: context larger than tier capacity";
  if tier <> Dram then
    while free_bytes t tier < bytes do
      let victim = coldest t tier in
      if victim == t.recency.(tier_index tier) then
        (* Everything resident is pinned; overflow to the next tier is the
           caller's job, so report failure by raising. *)
        invalid_arg "State_store: tier full of pinned contexts";
      let next = tier_of_index (tier_index tier + 1) in
      make_room t next victim.bytes;
      move t victim next;
      t.demotions <- t.demotions + 1
    done
[@@sl.zero_alloc]

(* The first tier, from [idx] down, with room for [bytes]. *)
let rec first_fit t bytes idx =
  let tier = tier_of_index idx in
  if tier = Dram || (free_bytes t tier >= bytes && bytes <= capacity_bytes t tier) then tier
  else first_fit t bytes (idx + 1)

let register t ~ptid ~bytes =
  if ptid < 0 then invalid_arg "State_store.register: negative ptid";
  if bytes <= 0 then invalid_arg "State_store.register: non-positive size";
  let tier = first_fit t bytes 0 in
  let sent = t.recency.(tier_index tier) in
  (* Built with its tier's sentinel in both links, which [link_mru]
     sets anyway: a self-linked [let rec] would build it twice. *)
  let e = { ptid; bytes; tier; last_touch = tick t; pinned = false; prev = sent; next = sent } in
  t.used.(tier_index tier) <- t.used.(tier_index tier) + bytes;
  t.registered <- t.registered + 1;
  link_mru t e;
  e

let tier_of _ e = e.tier

let promote_to_rf t e =
  if e.tier <> Register_file then begin
    make_room t Register_file e.bytes;
    move t e Register_file
  end
[@@sl.zero_alloc]

let refresh t e =
  unlink e;
  e.last_touch <- tick t;
  link_mru t e
[@@sl.zero_alloc]

let wake_transfer_cycles t e =
  let from = e.tier in
  let cost = transfer_cycles t from in
  (* Fault injection: an ECC-corrected corruption re-reads the context
     (doubling the transfer cost, zero for RF-resident state whose read is
     free); a silent corruption is undetectable by construction and
     costs nothing.  The injector counts both. *)
  let cost =
    match t.fault with
    | None -> cost
    | Some f -> (
      match f ~ptid:e.ptid with
      | Some Ecc_corrected -> cost * 2
      | Some Silent | None -> cost)
  in
  t.transfers.(tier_index from) <- t.transfers.(tier_index from) + 1;
  (* Promote with the entry's old tick first — while making room it can
     itself be the coldest RF resident — then refresh its recency. *)
  promote_to_rf t e;
  refresh t e;
  cost
[@@sl.zero_alloc]

let touch = refresh

let pin t e =
  if not e.pinned then begin
    promote_to_rf t e;
    e.pinned <- true
  end

let unpin _ e = e.pinned <- false

let prefetch t e =
  promote_to_rf t e;
  refresh t e

(* The recency lists are the store's only index, so the audit walks
   them: each walk checks its tier's membership and order and sums its
   bytes, and the four lists together must hold every registered
   entry.  Pinned entries found outside the register file are reported
   last, in ptid order. *)
let check t =
  let issues = ref [] in
  let problem fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let pinned_away = ref [] and listed = ref 0 in
  Array.iteri
    (fun idx sent ->
      let tier = tier_of_index idx in
      let bytes = ref 0 and pos = ref sent.next in
      while !pos != sent do
        let e = !pos in
        incr listed;
        bytes := !bytes + e.bytes;
        if e.pinned && e.tier <> Register_file then pinned_away := e :: !pinned_away;
        if e.tier <> tier then
          problem "%s recency list holds ptid %d resident in %s" (tier_name tier) e.ptid
            (tier_name e.tier);
        if e.next != sent && e.next.last_touch > e.last_touch then
          problem "%s recency list out of order at ptid %d" (tier_name tier) e.ptid;
        pos := e.next
      done;
      if !bytes <> t.used.(idx) then
        problem "%s accounting drift: used counter says %d bytes, entries sum to %d"
          (tier_name tier) t.used.(idx) !bytes;
      if tier <> Dram && t.used.(idx) > capacity_bytes t tier then
        problem "%s over capacity: %d bytes used of %d" (tier_name tier) t.used.(idx)
          (capacity_bytes t tier))
    t.recency;
  if !listed <> t.registered then
    problem "recency lists track %d entries, %d registered" !listed t.registered;
  List.sort (fun a b -> Int.compare a.ptid b.ptid) !pinned_away
  |> List.iter (fun e ->
         problem "ptid %d is pinned but resides in %s" e.ptid (tier_name e.tier));
  List.rev !issues

let transfer_count t tier = t.transfers.(tier_index tier)

let demotion_count t = t.demotions
