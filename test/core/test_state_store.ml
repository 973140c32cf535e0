(* Tests for the tiered thread-state storage (§4 design space). *)

module Params = Switchless.Params
module State_store = Switchless.State_store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tier = Alcotest.testable State_store.pp_tier ( = )

(* Contexts of ptids 0 .. n-1, registered in that order; the entry of
   ptid i is at index i. *)
let register_all ?(bytes = 272) s n =
  Array.init n (fun ptid -> State_store.register s ~ptid ~bytes)

(* Tiny capacities so tests exercise eviction with few threads:
   RF holds 2 GP contexts, L2 holds 4, L3 holds 8. *)
let small_params =
  {
    Params.default with
    Params.rf_capacity_bytes = 2 * 272;
    l2_state_capacity_bytes = 4 * 272;
    l3_state_capacity_bytes = 8 * 272;
  }

let test_first_fit_placement () =
  let s = State_store.create small_params in
  let e = register_all s 14 in
  Alcotest.check tier "0 in RF" State_store.Register_file (State_store.tier_of s e.(0));
  Alcotest.check tier "1 in RF" State_store.Register_file (State_store.tier_of s e.(1));
  Alcotest.check tier "2 in L2" State_store.L2 (State_store.tier_of s e.(2));
  Alcotest.check tier "5 in L2" State_store.L2 (State_store.tier_of s e.(5));
  Alcotest.check tier "6 in L3" State_store.L3 (State_store.tier_of s e.(6));
  Alcotest.check tier "13 in L3" State_store.L3 (State_store.tier_of s e.(13));
  let e14 = State_store.register s ~ptid:14 ~bytes:272 in
  Alcotest.check tier "overflow to DRAM" State_store.Dram (State_store.tier_of s e14)

let test_wake_costs_follow_tier_ladder () =
  let s = State_store.create small_params in
  let e = register_all s 15 in
  check_int "RF wake free" 0 (State_store.wake_transfer_cycles s e.(0));
  (* ptid 2 is in L2. *)
  let s2 = State_store.create small_params in
  let e2 = register_all s2 15 in
  check_int "L2 wake" small_params.Params.l2_transfer_cycles
    (State_store.wake_transfer_cycles s2 e2.(2));
  check_int "L3 wake" small_params.Params.l3_transfer_cycles
    (State_store.wake_transfer_cycles s2 e2.(7));
  check_int "DRAM wake" small_params.Params.dram_transfer_cycles
    (State_store.wake_transfer_cycles s2 e2.(14))

let test_wake_promotes_to_rf () =
  let s = State_store.create small_params in
  let e = register_all s 7 in
  ignore (State_store.wake_transfer_cycles s e.(6));
  Alcotest.check tier "promoted" State_store.Register_file (State_store.tier_of s e.(6));
  (* RF held 0 and 1; someone was demoted to make room. *)
  let rf_count =
    List.length
      (List.filter
         (fun e -> State_store.tier_of s e = State_store.Register_file)
         (Array.to_list e))
  in
  check_int "RF holds exactly 2" 2 rf_count;
  check_bool "a demotion happened" true (State_store.demotion_count s >= 1)

let test_lru_victim_selection () =
  let s = State_store.create small_params in
  let e = register_all s 3 in
  (* Touch 0 so 1 is the cold one; wake 2 must evict 1, not 0. *)
  State_store.touch s e.(0);
  ignore (State_store.wake_transfer_cycles s e.(2));
  Alcotest.check tier "0 stays" State_store.Register_file (State_store.tier_of s e.(0));
  Alcotest.check tier "1 demoted" State_store.L2 (State_store.tier_of s e.(1));
  Alcotest.check tier "2 resident" State_store.Register_file (State_store.tier_of s e.(2))

let test_pinning_protects_from_eviction () =
  let s = State_store.create small_params in
  let e = register_all s 3 in
  State_store.pin s e.(0);
  State_store.pin s e.(1);
  (* RF is now entirely pinned; waking 2 cannot evict. *)
  Alcotest.check_raises "all pinned"
    (Invalid_argument "State_store: tier full of pinned contexts") (fun () ->
      ignore (State_store.wake_transfer_cycles s e.(2)));
  State_store.unpin s e.(1);
  ignore (State_store.wake_transfer_cycles s e.(2));
  Alcotest.check tier "pinned survivor" State_store.Register_file
    (State_store.tier_of s e.(0));
  Alcotest.check tier "unpinned was evicted" State_store.L2 (State_store.tier_of s e.(1))

let test_prefetch_makes_wake_free () =
  let s = State_store.create small_params in
  let e = register_all s 7 in
  State_store.prefetch s e.(6);
  check_int "prefetched wake is free" 0 (State_store.wake_transfer_cycles s e.(6))

let test_vector_contexts_take_more_room () =
  (* RF sized for 2 GP contexts (544 B) cannot hold a 784-byte vector
     context at all; L2 (1088 B) holds exactly one. *)
  let s = State_store.create small_params in
  let e = register_all ~bytes:784 s 2 in
  Alcotest.check tier "first vector context lands in L2" State_store.L2
    (State_store.tier_of s e.(0));
  Alcotest.check tier "second overflows to L3" State_store.L3
    (State_store.tier_of s e.(1))

let test_transfer_counters () =
  let s = State_store.create small_params in
  let e = register_all s 7 in
  ignore (State_store.wake_transfer_cycles s e.(0));
  ignore (State_store.wake_transfer_cycles s e.(2));
  ignore (State_store.wake_transfer_cycles s e.(6));
  check_int "RF-resident wakes" 1 (State_store.transfer_count s State_store.Register_file);
  check_int "L2 wakes" 1 (State_store.transfer_count s State_store.L2);
  check_int "L3 wakes" 1 (State_store.transfer_count s State_store.L3)

(* Property: capacities are never exceeded for bounded tiers, whatever the
   wake sequence. *)
let prop_capacity_invariant =
  QCheck.Test.make ~name:"tier capacities never exceeded" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 19))
    (fun wakes ->
      let s = State_store.create small_params in
      let e = register_all s 20 in
      List.iter (fun ptid -> ignore (State_store.wake_transfer_cycles s e.(ptid))) wakes;
      State_store.used_bytes s State_store.Register_file
      <= State_store.capacity_bytes s State_store.Register_file
      && State_store.used_bytes s State_store.L2
         <= State_store.capacity_bytes s State_store.L2
      && State_store.used_bytes s State_store.L3
         <= State_store.capacity_bytes s State_store.L3)

(* Property: total bytes across tiers is conserved. *)
let prop_bytes_conserved =
  QCheck.Test.make ~name:"state bytes conserved across moves" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 19))
    (fun wakes ->
      let s = State_store.create small_params in
      let e = register_all s 20 in
      List.iter (fun ptid -> ignore (State_store.wake_transfer_cycles s e.(ptid))) wakes;
      let total =
        List.fold_left
          (fun acc tier -> acc + State_store.used_bytes s tier)
          0
          [ State_store.Register_file; State_store.L2; State_store.L3; State_store.Dram ]
      in
      total = 20 * 272)

(* Property: the store agrees with a naive reference model on every
   observable — tier placements, wake costs, demotion and transfer
   counters, and raised errors — over random operation sequences.  The
   model re-implements the policy the slow, obviously-correct way (used
   bytes summed on demand, victim = whole-table minimum-recency scan), so
   this is the safety net for the intrusive-recency-list eviction path. *)
module Model = struct
  type entry = {
    bytes : int;
    mutable tier : State_store.tier;
    mutable last : int;
    mutable pinned : bool;
  }

  type t = {
    params : Params.t;
    tbl : (int, entry) Hashtbl.t;
    mutable clock : int;
    mutable demotions : int;
    transfers : (State_store.tier, int) Hashtbl.t;
  }

  let create params =
    { params; tbl = Hashtbl.create 16; clock = 0; demotions = 0;
      transfers = Hashtbl.create 4 }

  let tick m =
    m.clock <- m.clock + 1;
    m.clock

  let capacity m = function
    | State_store.Register_file -> m.params.Params.rf_capacity_bytes
    | State_store.L2 -> m.params.Params.l2_state_capacity_bytes
    | State_store.L3 -> m.params.Params.l3_state_capacity_bytes
    | State_store.Dram -> max_int

  let used m tier =
    Hashtbl.fold (fun _ e acc -> if e.tier = tier then acc + e.bytes else acc) m.tbl 0

  let free m tier =
    if tier = State_store.Dram then max_int else capacity m tier - used m tier

  let next_tier = function
    | State_store.Register_file -> State_store.L2
    | State_store.L2 -> State_store.L3
    | State_store.L3 | State_store.Dram -> State_store.Dram

  let coldest m tier =
    Hashtbl.fold
      (fun _ e acc ->
        if e.tier <> tier || e.pinned then acc
        else
          match acc with
          | Some best when best.last < e.last -> acc
          | _ -> Some e)
      m.tbl None

  let rec make_room m tier bytes =
    if tier <> State_store.Dram && bytes > capacity m tier then
      invalid_arg "State_store: context larger than tier capacity";
    if tier <> State_store.Dram then
      while free m tier < bytes do
        match coldest m tier with
        | None -> invalid_arg "State_store: tier full of pinned contexts"
        | Some victim ->
          let next = next_tier tier in
          make_room m next victim.bytes;
          victim.tier <- next;
          m.demotions <- m.demotions + 1
      done

  let register m ~ptid ~bytes =
    let rec first_fit tier =
      if tier = State_store.Dram
         || (free m tier >= bytes && bytes <= capacity m tier)
      then tier
      else first_fit (next_tier tier)
    in
    let tier = first_fit State_store.Register_file in
    Hashtbl.replace m.tbl ptid { bytes; tier; last = tick m; pinned = false }

  let promote_to_rf m e =
    if e.tier <> State_store.Register_file then begin
      make_room m State_store.Register_file e.bytes;
      e.tier <- State_store.Register_file
    end

  let transfer_cycles m = function
    | State_store.Register_file -> 0
    | State_store.L2 -> m.params.Params.l2_transfer_cycles
    | State_store.L3 -> m.params.Params.l3_transfer_cycles
    | State_store.Dram -> m.params.Params.dram_transfer_cycles

  let wake m ~ptid =
    let e = Hashtbl.find m.tbl ptid in
    let from = e.tier in
    let cost = transfer_cycles m from in
    Hashtbl.replace m.transfers from
      (1 + Option.value ~default:0 (Hashtbl.find_opt m.transfers from));
    promote_to_rf m e;
    e.last <- tick m;
    cost

  let touch m ~ptid = (Hashtbl.find m.tbl ptid).last <- tick m

  let pin m ~ptid =
    let e = Hashtbl.find m.tbl ptid in
    if not e.pinned then begin
      promote_to_rf m e;
      e.pinned <- true
    end

  let unpin m ~ptid = (Hashtbl.find m.tbl ptid).pinned <- false

  let prefetch m ~ptid =
    let e = Hashtbl.find m.tbl ptid in
    promote_to_rf m e;
    e.last <- tick m

  let transfer_count m tier =
    Option.value ~default:0 (Hashtbl.find_opt m.transfers tier)
end

(* Run one op on both sides, capturing either the result or the error
   message; both sides must agree. *)
let agree pp real model =
  let run f = try Ok (f ()) with Invalid_argument msg -> Error msg in
  let r = run real and m = run model in
  if r <> m then
    QCheck.Test.fail_reportf "store %s disagrees with model %s"
      (match r with Ok v -> pp v | Error e -> "error: " ^ e)
      (match m with Ok v -> pp v | Error e -> "error: " ^ e);
  true

let prop_matches_reference_model =
  let tiers =
    [ State_store.Register_file; State_store.L2; State_store.L3; State_store.Dram ]
  in
  (* op encoding: 0 register / 1 wake / 2 touch / 3 pin / 4 unpin /
     5 prefetch, over a small ptid space so sequences revisit threads. *)
  let op_gen = QCheck.(pair (int_bound 5) (int_bound 14)) in
  QCheck.Test.make ~name:"store matches naive reference model" ~count:200
    QCheck.(list_of_size Gen.(1 -- 150) op_gen)
    (fun ops ->
      let s = State_store.create small_params in
      let m = Model.create small_params in
      (* ptid -> the store's entry *)
      let registered = Hashtbl.create 16 in
      List.for_all
        (fun (op, ptid) ->
          let entry = Hashtbl.find_opt registered ptid in
          let ok =
            match (op, entry) with
            | 0, None ->
              (* A third of the contexts are full-vector sized. *)
              let bytes = if ptid mod 3 = 0 then 784 else 272 in
              agree string_of_int
                (fun () ->
                  Hashtbl.replace registered ptid (State_store.register s ~ptid ~bytes);
                  0)
                (fun () -> Model.register m ~ptid ~bytes; 0)
            | 1, Some e ->
              agree string_of_int
                (fun () -> State_store.wake_transfer_cycles s e)
                (fun () -> Model.wake m ~ptid)
            | 2, Some e ->
              agree string_of_int
                (fun () -> State_store.touch s e; 0)
                (fun () -> Model.touch m ~ptid; 0)
            | 3, Some e ->
              agree string_of_int
                (fun () -> State_store.pin s e; 0)
                (fun () -> Model.pin m ~ptid; 0)
            | 4, Some e ->
              agree string_of_int
                (fun () -> State_store.unpin s e; 0)
                (fun () -> Model.unpin m ~ptid; 0)
            | 5, Some e ->
              agree string_of_int
                (fun () -> State_store.prefetch s e; 0)
                (fun () -> Model.prefetch m ~ptid; 0)
            | _ -> true
          in
          ok
          && Hashtbl.fold
               (fun ptid e acc ->
                 acc
                 && State_store.tier_of s e = (Hashtbl.find m.Model.tbl ptid).Model.tier)
               registered true
          && State_store.demotion_count s = m.Model.demotions
          && List.for_all
               (fun t -> State_store.transfer_count s t = Model.transfer_count m t)
               tiers
          && State_store.check s = [])
        ops)

(* The wake path allocates nothing, also when it demotes a chain.  With
   every tier full and the contexts woken round-robin, each wake brings
   the coldest context up from DRAM and demotes one context out of RF,
   L2 and L3 each.  On OCaml 5.1, such a wake allocated 42 minor words
   while [coldest] returned an option and it and the sorted insert each
   built a local recursive closure.  Measured as the difference between
   two loop lengths. *)
let test_wake_chain_allocates_nothing () =
  let s = State_store.create small_params in
  let n = 20 in
  let e = register_all s n in
  let wakes k =
    for i = 0 to k - 1 do
      ignore (State_store.wake_transfer_cycles s e.(i mod n) : int)
    done
  in
  (* One round to reach the steady state: the oldest context is in DRAM. *)
  wakes n;
  let words k =
    let before = Gc.minor_words () in
    wakes k;
    Gc.minor_words () -. before
  in
  let demoted = State_store.demotion_count s
  and from_dram = State_store.transfer_count s State_store.Dram in
  let w = words (100 * n) -. words (50 * n) in
  check_int "every wake from DRAM" (150 * n)
    (State_store.transfer_count s State_store.Dram - from_dram);
  check_int "three demotions per wake" (3 * 150 * n) (State_store.demotion_count s - demoted);
  check_bool
    (Printf.sprintf "%.2f minor words per wake = 0" (w /. float_of_int (50 * n)))
    true (w = 0.0);
  check_bool "store healthy" true (State_store.check s = [])

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_capacity_invariant; prop_bytes_conserved; prop_matches_reference_model ]
  in
  Alcotest.run "state_store"
    [
      ( "placement",
        [
          Alcotest.test_case "first fit" `Quick test_first_fit_placement;
          Alcotest.test_case "tier cost ladder" `Quick test_wake_costs_follow_tier_ladder;
          Alcotest.test_case "wake promotes" `Quick test_wake_promotes_to_rf;
          Alcotest.test_case "LRU victim" `Quick test_lru_victim_selection;
          Alcotest.test_case "vector contexts" `Quick test_vector_contexts_take_more_room;
        ] );
      ( "policies",
        [
          Alcotest.test_case "pinning" `Quick test_pinning_protects_from_eviction;
          Alcotest.test_case "prefetch" `Quick test_prefetch_makes_wake_free;
          Alcotest.test_case "transfer counters" `Quick test_transfer_counters;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "wake chain allocates nothing" `Quick
            test_wake_chain_allocates_nothing;
        ] );
      ("properties", qsuite);
    ]
