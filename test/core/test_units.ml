(* Unit tests for the small core modules: Memory, Regstate,
   Exception_desc, Params, and the Hw_dispatch unit. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Memory = Switchless.Memory
module Regstate = Switchless.Regstate
module Exception_desc = Switchless.Exception_desc
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Hw_dispatch = Switchless.Hw_dispatch
module Fault = Sl_fault.Fault

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- Memory --- *)

let test_memory_read_write () =
  let m = Memory.create () in
  let a = Memory.alloc m 4 in
  check_i64 "unwritten reads zero" 0L (Memory.read m a);
  Memory.write m a 42L;
  check_i64 "written value" 42L (Memory.read m a);
  Memory.write m a 43L;
  check_i64 "overwrite" 43L (Memory.read m a);
  check_int "write count" 2 (Memory.write_count m)

let test_memory_alloc_disjoint () =
  let m = Memory.create () in
  let a = Memory.alloc m 10 and b = Memory.alloc m 10 in
  check_bool "disjoint ranges" true (b >= a + 10);
  Alcotest.check_raises "zero alloc" (Invalid_argument "Memory.alloc: non-positive size")
    (fun () -> ignore (Memory.alloc m 0))

let test_memory_hooks_fire_in_order () =
  let m = Memory.create () in
  let log = ref [] in
  Memory.add_write_hook m (fun addr v -> log := ("first", addr, v) :: !log);
  Memory.add_write_hook m (fun addr v -> log := ("second", addr, v) :: !log);
  Memory.write m 7 9L;
  match List.rev !log with
  | [ ("first", 7, 9L); ("second", 7, 9L) ] -> ()
  | _ -> Alcotest.fail "hooks must run in registration order with addr/value"

(* --- Regstate --- *)

let test_regstate_get_set_roundtrip () =
  let r = Regstate.create () in
  Regstate.set r (Regstate.Gp 5) 11L;
  Regstate.set r Regstate.Rip 0x400L;
  Regstate.set r Regstate.Rflags 2L;
  check_i64 "gp" 11L (Regstate.get r (Regstate.Gp 5));
  check_i64 "rip" 0x400L (Regstate.get r Regstate.Rip);
  check_i64 "rflags" 2L (Regstate.get r Regstate.Rflags);
  check_i64 "other gp untouched" 0L (Regstate.get r (Regstate.Gp 6))

let test_regstate_vector_access_guard () =
  let gp_only = Regstate.create () in
  Alcotest.check_raises "vector on gp context"
    (Invalid_argument "Regstate: vector access on a non-vector context") (fun () ->
      ignore (Regstate.get gp_only (Regstate.Vector 0)));
  let vec = Regstate.create ~vector:true () in
  Regstate.set vec (Regstate.Vector 3) 99L;
  check_i64 "vector value" 99L (Regstate.get vec (Regstate.Vector 3))

let test_regstate_bounds () =
  let r = Regstate.create () in
  Alcotest.check_raises "gp 16" (Invalid_argument "Regstate: GP register out of range")
    (fun () -> ignore (Regstate.get r (Regstate.Gp 16)))

let test_regstate_copy_independent () =
  let a = Regstate.create () in
  Regstate.set a (Regstate.Gp 0) 1L;
  let b = Regstate.copy a in
  Regstate.set b (Regstate.Gp 0) 2L;
  check_i64 "original unchanged" 1L (Regstate.get a (Regstate.Gp 0));
  check_i64 "copy changed" 2L (Regstate.get b (Regstate.Gp 0))

(* Every register class sits in one flat buffer: values that use all
   64 bits round-trip at both ends of it and at each class's slot, and
   no write reaches a neighbour. *)
let test_regstate_every_class_round_trips () =
  let regs =
    [
      Regstate.Gp 0;
      Regstate.Gp 15;
      Regstate.Rip;
      Regstate.Rflags;
      Regstate.Exception_descriptor_ptr;
      Regstate.Tdt_base;
      Regstate.Vector 0;
      Regstate.Vector 15;
    ]
  in
  let value i = Int64.(logxor min_int (mul 0x0101010101010101L (of_int (i + 1)))) in
  List.iter
    (fun vector ->
      let r = Regstate.create ~vector () in
      let regs =
        if vector then regs
        else List.filter (function Regstate.Vector _ -> false | _ -> true) regs
      in
      List.iteri (fun i reg -> Regstate.set r reg (value i)) regs;
      List.iteri
        (fun i reg ->
          check_i64 (Format.asprintf "%a (vector %b)" Regstate.pp_reg reg vector) (value i)
            (Regstate.get r reg))
        regs;
      check_i64 "gp 1 untouched" 0L (Regstate.get r (Regstate.Gp 1));
      check_i64 "gp 14 untouched" 0L (Regstate.get r (Regstate.Gp 14));
      if vector then begin
        check_i64 "v1 untouched" 0L (Regstate.get r (Regstate.Vector 1));
        check_i64 "v14 untouched" 0L (Regstate.get r (Regstate.Vector 14))
      end)
    [ false; true ]

(* Until its first write a context reads [0L] everywhere and holds no
   register storage: its record and the shared empty buffer, 5 words on
   OCaml 5.1 (27 when it carried its register arrays from the start). *)
let test_regstate_unwritten_holds_no_storage () =
  List.iter
    (fun vector ->
      let r = Regstate.create ~vector () in
      let classes =
        [
          Regstate.Gp 0;
          Regstate.Gp 15;
          Regstate.Rip;
          Regstate.Rflags;
          Regstate.Exception_descriptor_ptr;
          Regstate.Tdt_base;
        ]
        @ if vector then [ Regstate.Vector 0; Regstate.Vector 15 ] else []
      in
      List.iter
        (fun reg ->
          check_i64 (Format.asprintf "%a" Regstate.pp_reg reg) 0L (Regstate.get r reg))
        classes;
      let words = Obj.reachable_words (Obj.repr r) in
      check_bool (Printf.sprintf "%d words (vector %b) <= 5" words vector) true (words <= 5))
    [ false; true ]

(* A copy shares nothing with its source, written or not. *)
let test_regstate_copy_of_unwritten () =
  let a = Regstate.create ~vector:true () in
  let b = Regstate.copy a in
  Regstate.set b (Regstate.Vector 15) 7L;
  check_i64 "source unwritten" 0L (Regstate.get a (Regstate.Vector 15));
  check_bool "source holds no storage" true (Obj.reachable_words (Obj.repr a) <= 5);
  let c = Regstate.copy b in
  Regstate.set b (Regstate.Vector 15) 8L;
  Regstate.set c Regstate.Rip 9L;
  check_i64 "copy keeps the value at copy time" 7L (Regstate.get c (Regstate.Vector 15));
  check_i64 "source unchanged by the copy's write" 0L (Regstate.get b Regstate.Rip)

let test_regstate_footprint () =
  let p = Params.default in
  check_int "gp footprint" 272 (Regstate.footprint_bytes p (Regstate.create ()));
  check_int "vector footprint" 784
    (Regstate.footprint_bytes p (Regstate.create ~vector:true ()))

let test_regstate_permission_classes () =
  check_bool "edp privileged" true (Regstate.is_privileged_reg Regstate.Exception_descriptor_ptr);
  check_bool "tdt privileged" true (Regstate.is_privileged_reg Regstate.Tdt_base);
  check_bool "gp not privileged" false (Regstate.is_privileged_reg (Regstate.Gp 0));
  check_bool "modify-some allows gp" true (Regstate.modify_some_allows (Regstate.Gp 0));
  check_bool "modify-some blocks rip" false (Regstate.modify_some_allows Regstate.Rip);
  check_bool "modify-most allows rip" true (Regstate.modify_most_allows Regstate.Rip);
  check_bool "modify-most blocks edp" false
    (Regstate.modify_most_allows Regstate.Exception_descriptor_ptr)

(* --- Exception_desc --- *)

let test_descriptor_roundtrip () =
  let m = Memory.create () in
  let base = Memory.alloc m Exception_desc.size_words in
  Exception_desc.write m ~base ~seq:7L ~core_id:3 ~ptid:42 Exception_desc.Page_fault
    ~info:0xFEEDL;
  let d = Exception_desc.read m ~base in
  check_i64 "seq" 7L d.Exception_desc.seq;
  check_bool "kind" true (d.Exception_desc.kind = Exception_desc.Page_fault);
  check_int "core" 3 d.Exception_desc.core_id;
  check_int "ptid" 42 d.Exception_desc.ptid;
  check_i64 "info" 0xFEEDL d.Exception_desc.info

let test_descriptor_seq_written_last () =
  let m = Memory.create () in
  let base = Memory.alloc m Exception_desc.size_words in
  let writes = ref [] in
  Memory.add_write_hook m (fun addr _ -> writes := addr :: !writes);
  Exception_desc.write m ~base ~seq:1L ~core_id:0 ~ptid:1 Exception_desc.Divide_error
    ~info:0L;
  match !writes with
  | last :: _ -> check_int "monitored word written last" base last
  | [] -> Alcotest.fail "no writes recorded"

let test_kind_codes_roundtrip () =
  List.iter
    (fun kind ->
      check_bool "code roundtrip" true
        (Exception_desc.kind_of_code (Exception_desc.code kind) = kind))
    [
      Exception_desc.Divide_error;
      Exception_desc.Page_fault;
      Exception_desc.Privileged_instruction;
      Exception_desc.Permission_denied;
      Exception_desc.Invalid_thread_access;
      Exception_desc.Custom 17;
    ]

(* --- Params --- *)

let test_params_unit_conversion () =
  let p = Params.default in
  Alcotest.(check (float 1e-9)) "3000 cycles = 1000 ns" 1000.0 (Params.cycles_to_ns p 3000);
  check_int "1000 ns = 3000 cycles" 3000 (Params.ns_to_cycles p 1000.0);
  check_int "gp bytes" 272 (Params.regstate_bytes p ~vector:false);
  check_int "vector bytes" 784 (Params.regstate_bytes p ~vector:true)

(* --- Hw_dispatch --- *)

let dispatch_world policy n_workers =
  let sim = Sim.create () in
  let chip = Chip.create sim Params.default ~cores:1 in
  let d = Hw_dispatch.create chip ~core:0 ~policy () in
  let handled = ref [] in
  for i = 1 to n_workers do
    let th = Chip.add_thread chip ~core:0 ~ptid:i ~mode:Ptid.User () in
    Chip.attach th (fun th ->
        Hw_dispatch.worker_loop d th (fun payload ->
            Isa.exec th 100;
            handled := (i, payload) :: !handled));
    Chip.boot th
  done;
  (sim, chip, d, handled)

let test_dispatch_delivers_all_items () =
  let sim, _, d, handled = dispatch_world Hw_dispatch.Lifo 4 in
  Sim.schedule sim ~at:1000 (fun () ->
      for item = 1 to 10 do
        Hw_dispatch.submit d (Int64.of_int item)
      done);
  Sim.run ~until:100_000 sim;
  check_int "all handled" 10 (List.length !handled);
  let payloads = List.map snd !handled |> List.sort compare in
  Alcotest.(check (list int64)) "each exactly once"
    (List.init 10 (fun i -> Int64.of_int (i + 1)))
    payloads;
  check_int "dispatched counter" 10 (Hw_dispatch.dispatched d)

let test_dispatch_queues_when_pool_exhausted () =
  let sim, _, d, handled = dispatch_world Hw_dispatch.Lifo 2 in
  Sim.schedule sim ~at:1000 (fun () ->
      for item = 1 to 6 do
        Hw_dispatch.submit d (Int64.of_int item)
      done);
  Sim.schedule sim ~at:1001 (fun () ->
      check_bool "items queued" true (Hw_dispatch.queued d > 0));
  Sim.run ~until:100_000 sim;
  check_int "all eventually handled" 6 (List.length !handled);
  check_int "queue drained" 0 (Hw_dispatch.queued d)

let test_dispatch_lifo_prefers_recent_worker () =
  let sim, _, d, handled = dispatch_world Hw_dispatch.Lifo 3 in
  (* Serial submissions with gaps: LIFO should reuse one worker. *)
  Sim.spawn sim (fun () ->
      Sim.delay 1000;
      for item = 1 to 5 do
        Hw_dispatch.submit d (Int64.of_int item);
        Sim.delay 2000
      done);
  Sim.run ~until:100_000 sim;
  let workers_used = List.map fst !handled |> List.sort_uniq compare in
  check_int "single hot worker" 1 (List.length workers_used)

let test_dispatch_fifo_rotates_workers () =
  let sim, _, d, handled = dispatch_world Hw_dispatch.Fifo 3 in
  Sim.spawn sim (fun () ->
      Sim.delay 1000;
      for item = 1 to 6 do
        Hw_dispatch.submit d (Int64.of_int item);
        Sim.delay 2000
      done);
  Sim.run ~until:100_000 sim;
  let workers_used = List.map fst !handled |> List.sort_uniq compare in
  check_int "all workers cycled" 3 (List.length workers_used)

let test_dispatch_race_free_under_burst () =
  (* Submissions landing exactly while a worker is between its queue
     probe and its park must not be lost (latch semantics). *)
  let sim, _, d, handled = dispatch_world Hw_dispatch.Lifo 1 in
  Sim.spawn sim (fun () ->
      Sim.delay 1000;
      for item = 1 to 50 do
        Hw_dispatch.submit d (Int64.of_int item);
        (* Pathological gap close to the worker's service time. *)
        Sim.delay 103
      done);
  Sim.run ~until:1_000_000 sim;
  check_int "no lost items" 50 (List.length !handled)

(* A wake that dispatched nothing handles nothing: with spurious wakes
   injected into 30% of parks, each of 20 items submitted one at a time
   is handled exactly once.  A worker that handled its last item again
   after every wake handled 26 items here, 20 of them distinct. *)
let test_dispatch_spurious_wake_handles_nothing () =
  let inj =
    match Fault.parse_spec "seed=3,mwait.spurious=0.3" with
    | Ok plan -> Fault.create plan
    | Error e -> Alcotest.fail e
  in
  let handled =
    Fault.with_ambient inj (fun () ->
        let sim, _, d, handled = dispatch_world Hw_dispatch.Lifo 4 in
        Sim.spawn sim (fun () ->
            Sim.delay 1000;
            for item = 1 to 20 do
              Hw_dispatch.submit d (Int64.of_int item);
              Sim.delay 2000
            done);
        Sim.run ~until:1_000_000 sim;
        !handled)
  in
  check_bool "spurious wakes injected" true (Fault.count inj "mwait.spurious" > 0);
  Alcotest.(check (list int64))
    "each item handled once"
    (List.init 20 (fun i -> Int64.of_int (i + 1)))
    (List.sort compare (List.map snd handled))

(* A submit that lands while a spuriously woken worker resumes is
   handled once.  One Locality worker, woken spuriously 100 cycles into
   every park (a round of 131 cycles), gets one item, at each offset
   across three of its rounds in turn.  The item is lost if a worker
   woken with nothing dispatched probes the queue before parking again:
   the probe can yield with the worker still linked, a [submit] takes
   it, the empty probe parks it again and its doorbell wake counts as
   spurious. *)
let test_dispatch_submit_meets_spurious_resume () =
  for offset = 0 to 400 do
    let inj =
      match Fault.parse_spec "seed=1,mwait.spurious=1.0,mwait.spurious_delay=100" with
      | Ok plan -> Fault.create plan
      | Error e -> Alcotest.fail e
    in
    let handled =
      Fault.with_ambient inj (fun () ->
          let sim, _, d, handled = dispatch_world Hw_dispatch.Locality 1 in
          Sim.schedule sim ~at:(10_000 + offset) (fun () -> Hw_dispatch.submit d 1L);
          Sim.run ~until:20_000 sim;
          !handled)
    in
    Alcotest.(check (list int64))
      (Printf.sprintf "submitted at 10000+%d: handled once" offset)
      [ 1L ] (List.map snd handled)
  done

let () =
  Alcotest.run "core_units"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_read_write;
          Alcotest.test_case "alloc disjoint" `Quick test_memory_alloc_disjoint;
          Alcotest.test_case "hook order" `Quick test_memory_hooks_fire_in_order;
        ] );
      ( "regstate",
        [
          Alcotest.test_case "get/set" `Quick test_regstate_get_set_roundtrip;
          Alcotest.test_case "vector guard" `Quick test_regstate_vector_access_guard;
          Alcotest.test_case "bounds" `Quick test_regstate_bounds;
          Alcotest.test_case "copy" `Quick test_regstate_copy_independent;
          Alcotest.test_case "every class round-trips" `Quick
            test_regstate_every_class_round_trips;
          Alcotest.test_case "unwritten holds no storage" `Quick
            test_regstate_unwritten_holds_no_storage;
          Alcotest.test_case "copy of an unwritten context" `Quick
            test_regstate_copy_of_unwritten;
          Alcotest.test_case "footprint" `Quick test_regstate_footprint;
          Alcotest.test_case "permission classes" `Quick test_regstate_permission_classes;
        ] );
      ( "exception_desc",
        [
          Alcotest.test_case "roundtrip" `Quick test_descriptor_roundtrip;
          Alcotest.test_case "seq written last" `Quick test_descriptor_seq_written_last;
          Alcotest.test_case "kind codes" `Quick test_kind_codes_roundtrip;
        ] );
      ("params", [ Alcotest.test_case "conversions" `Quick test_params_unit_conversion ]);
      ( "hw_dispatch",
        [
          Alcotest.test_case "delivers all" `Quick test_dispatch_delivers_all_items;
          Alcotest.test_case "queues on exhaustion" `Quick
            test_dispatch_queues_when_pool_exhausted;
          Alcotest.test_case "lifo reuses hot worker" `Quick
            test_dispatch_lifo_prefers_recent_worker;
          Alcotest.test_case "fifo rotates" `Quick test_dispatch_fifo_rotates_workers;
          Alcotest.test_case "spurious wake handles nothing" `Quick
            test_dispatch_spurious_wake_handles_nothing;
          Alcotest.test_case "submit meets a spurious resume" `Quick
            test_dispatch_submit_meets_spurious_resume;
          Alcotest.test_case "race-free under burst" `Quick
            test_dispatch_race_free_under_burst;
        ] );
    ]
