(* The SoA rewrites (Monitor's pair arena + slot arrays, Chip's dense
   thread columns) against record/Hashtbl reference models — the shape
   the code had before the flattening.  The models are deliberately
   naive: every operation is a few Hashtbl lookups over immutable lists,
   so their correctness is readable off the page, and QCheck drives both
   implementations through the same random interleavings and demands
   identical observable behavior at every step. *)

module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Monitor = Switchless.Monitor

(* ---------------------------------------------------------------------
   Reference model of the monitor: the pre-SoA layout — association by
   Hashtbl, watcher lists as immutable cons-lists, one record of
   per-thread state.  Semantics mirrored exactly:
   - arming is idempotent and appends to the thread's list (arming
     order) while prepending to the address's watcher list, so a write
     delivers most-recently-armed first;
   - a write wakes a parked thread, through the one waiter, or latches
     the first trigger (later ones coalesce);
   - mwait consumes a latch immediately or parks;
   - relatch delivers straight to a re-parked thread, else latches. *)
module Model = struct
  type key = int * int (* core, ptid *)

  type t = {
    watchers : (int, key list) Hashtbl.t; (* addr -> most-recent-first *)
    order : (key, int list) Hashtbl.t; (* thread -> addrs, arming order *)
    pending : (key, int) Hashtbl.t;
    parked : (key, unit) Hashtbl.t;
    waiter : key -> int -> unit;
  }

  let create waiter =
    {
      watchers = Hashtbl.create 16;
      order = Hashtbl.create 16;
      pending = Hashtbl.create 16;
      parked = Hashtbl.create 16;
      waiter;
    }

  let armed t k = try Hashtbl.find t.order k with Not_found -> []
  let watchers t a = try Hashtbl.find t.watchers a with Not_found -> []
  let has_waiter t k = Hashtbl.mem t.parked k

  let arm t k a =
    if not (List.mem a (armed t k)) then begin
      Hashtbl.replace t.order k (armed t k @ [ a ]);
      Hashtbl.replace t.watchers a (k :: watchers t a)
    end

  let disarm t k a =
    if List.mem a (armed t k) then begin
      Hashtbl.replace t.order k (List.filter (fun x -> x <> a) (armed t k));
      Hashtbl.replace t.watchers a (List.filter (fun x -> x <> k) (watchers t a))
    end

  let disarm_all t k = List.iter (disarm t k) (armed t k)

  let write t a =
    (* Snapshot, as the real monitor does: wakes may re-arm mid-delivery. *)
    let snapshot = watchers t a in
    List.iter
      (fun k ->
        if has_waiter t k then begin
          Hashtbl.remove t.parked k;
          t.waiter k a
        end
        else if not (Hashtbl.mem t.pending k) then Hashtbl.replace t.pending k a)
      snapshot

  let mwait t k =
    match Hashtbl.find_opt t.pending k with
    | Some a ->
      Hashtbl.remove t.pending k;
      Some a
    | None ->
      Hashtbl.replace t.parked k ();
      None

  let cancel t k = Hashtbl.remove t.parked k

  let relatch t k a =
    if has_waiter t k then begin
      Hashtbl.remove t.parked k;
      t.waiter k a
    end
    else if not (Hashtbl.mem t.pending k) then Hashtbl.replace t.pending k a
end

let keys = [| (0, 1); (0, 2); (1, 3); (1, 4) |]

(* A spread of addresses on purpose: below the heap base, at it, and far
   above it, so the model disagrees if the monitor's auto-rebasing dense
   index mishandles any region. *)
let addrs = [| 16; 17; 0x1000; 0x1001; 5000; 9000 |]

(* Below, [slots.(i)] is the monitor slot registered for [keys.(i)]. *)
let slot_of keys slots k =
  let rec find i = if keys.(i) = k then slots.(i) else find (i + 1) in
  find 0

(* Each side's (slot, addr) deliveries go to its own log: the monitor's
   one waiter names the slot, the model's the key, which [slot_of]
   maps to its slot. *)
let log_delivery buf s a = Buffer.add_string buf (Printf.sprintf "%d@%d;" s a)

let logged_monitor mem buf =
  let mon = Monitor.create Params.default in
  Monitor.attach mon mem;
  Monitor.set_waiter mon (log_delivery buf);
  mon

let check_mirror mon slots model =
  Array.for_all2
    (fun s k ->
      Monitor.armed mon s = Model.armed model k
      && Monitor.has_waiter mon s = Model.has_waiter model k)
    slots keys
  && List.for_all
       (fun core ->
         Monitor.core_armed_count mon core
         = Array.fold_left
             (fun acc ((c, _) as k) ->
               if c = core then acc + List.length (Model.armed model k) else acc)
             0 keys)
       [ 0; 1 ]

let prop_monitor_matches_model =
  QCheck.Test.make ~name:"monitor mirrors record/Hashtbl model" ~count:300
    QCheck.(
      list_of_size
        Gen.(1 -- 80)
        (triple (int_bound 5) (int_bound (Array.length keys - 1))
           (int_bound (Array.length addrs - 1))))
    (fun ops ->
      let mem = Memory.create () in
      let real_log = Buffer.create 64 in
      let model_log = Buffer.create 64 in
      let mon = logged_monitor mem real_log in
      let slots = Array.map (fun (core_id, _) -> Monitor.register mon ~core_id) keys in
      let model = Model.create (fun k -> log_delivery model_log (slot_of keys slots k)) in
      let step (op, ki, ai) =
        let k = keys.(ki) in
        let tk = slots.(ki) in
        let a = addrs.(ai) in
        match op with
        | 0 ->
          Monitor.arm mon tk a;
          Model.arm model k a;
          true
        | 1 ->
          Monitor.disarm_all mon tk;
          Model.disarm_all model k;
          true
        | 2 ->
          Memory.write mem a 1L;
          Model.write model a;
          true
        | 3 ->
          (* mwait on an already-parked thread is a programming error in
             both implementations; the model knows, so skip in lockstep. *)
          if Model.has_waiter model k then true
          else begin
            let real = Monitor.mwait mon tk in
            match Model.mwait model k with Some ma -> real = ma | None -> real = -1
          end
        | 4 ->
          Monitor.cancel_wait mon tk;
          Model.cancel model k;
          true
        | _ ->
          Monitor.relatch mon tk a;
          Model.relatch model k a;
          true
      in
      let ok =
        List.for_all
          (fun op ->
            step op
            && check_mirror mon slots model
            && Buffer.contents real_log = Buffer.contents model_log)
          ops
      in
      (* Drain: the pending latch has no direct accessor, so expose it by
         running a final mwait per idle thread and comparing outcomes. *)
      ok
      && Array.for_all2
           (fun tk k ->
             if Model.has_waiter model k then true
             else
               let real = Monitor.mwait mon tk in
               match Model.mwait model k with Some ma -> real = ma | None -> real = -1)
           slots keys)

(* [Monitor.arm] finds an armed pair by walking the slot's armed list
   and the address's watcher list in lockstep, so its idempotence must
   hold whichever list is the longer one, and wherever in each the pair
   sits.  One slot arms many addresses and many slots watch one address,
   the fan-out or the fan-in first, each with a few stray arms beside;
   then every pair is armed again in a shuffled order.  The armed lists,
   the per-core counts and a write's delivery order to the shared
   address must match the model's, which checks membership with
   [List.mem]. *)
let prop_arm_idempotent_on_long_lists =
  QCheck.Test.make ~name:"arm idempotent on long armed and watcher lists" ~count:100
    QCheck.(
      quad (int_range 1 80) (int_range 1 80) bool
        (list_of_size Gen.(0 -- 20) (pair (int_bound 79) (int_bound 79))))
    (fun (fan_out, fan_in, out_first, strays) ->
      let mem = Memory.create () in
      let log = Buffer.create 64 and model_log = Buffer.create 64 in
      let mon = logged_monitor mem log in
      let nslots = max fan_in 2 in
      let keys = Array.init nslots (fun i -> (i mod 2, i)) in
      let slots = Array.map (fun (core_id, _) -> Monitor.register mon ~core_id) keys in
      let model = Model.create (fun k -> log_delivery model_log (slot_of keys slots k)) in
      let shared = 0x1000 in
      let own i = 0x2000 + i in
      let arms = ref [] in
      let arm i a =
        arms := (i, a) :: !arms;
        Monitor.arm mon slots.(i) a;
        Model.arm model keys.(i) a
      in
      let arm_fan_out () = for j = 0 to fan_out - 1 do arm 0 (own j) done
      and arm_fan_in () = for i = 0 to fan_in - 1 do arm i shared done in
      if out_first then (arm_fan_out (); arm_fan_in ())
      else (arm_fan_in (); arm_fan_out ());
      List.iter (fun (i, j) -> arm (i mod nslots) (own j)) strays;
      (* Every pair again, in an order that mixes both fans. *)
      let again = Array.of_list !arms in
      let rng = Random.State.make [| fan_out; fan_in; List.length strays |] in
      for k = Array.length again - 1 downto 1 do
        let r = Random.State.int rng (k + 1) in
        let x = again.(k) in
        again.(k) <- again.(r);
        again.(r) <- x
      done;
      Array.iter (fun (i, a) -> arm i a) again;
      Array.iteri
        (fun i k ->
          ignore (Monitor.mwait mon slots.(i) : int);
          ignore (Model.mwait model k : int option))
        keys;
      Memory.write mem shared 1L;
      Model.write model shared;
      Array.for_all2 (fun s k -> Monitor.armed mon s = Model.armed model k) slots keys
      && List.for_all
           (fun core ->
             Monitor.core_armed_count mon core
             = Array.fold_left
                 (fun acc ((c, _) as k) ->
                   if c = core then acc + List.length (Model.armed model k) else acc)
                 0 keys)
           [ 0; 1 ]
      && Buffer.contents log = Buffer.contents model_log)

(* ---------------------------------------------------------------------
   Chip-level interleavings: spawn / park / wake / crash / restart.

   Workers park in mwait on a private doorbell and count the wakes their
   body observes.  The script applies one operation every 1000 cycles —
   far longer than any transient (wake delivery, the 10-cycle body, a
   crash 10 cycles into a park, a cold restart 50 cycles later) — so the
   reference model can track the chip exactly without simulating time:
   - Wake: the parked body observes one wake and re-parks.
   - Wake with a park-crash planned: the body observes the wake, then
     crash-stops on the next park and cold-restarts — one more crash,
     same wakes, parked again.
   - Wake with a wake-crash planned: the thread dies at the wake
     boundary, holding the event — the doorbell was consumed but the
     body never saw it, and the cold restart parks fresh.  One more
     crash, no wake observed.
   The model is the pre-SoA bookkeeping: one mutable record per ptid in
   a Hashtbl, plus the spawn order as a list. *)
type model_thread = { mutable wakes : int; mutable crashes : int }

let prop_chip_matches_model =
  QCheck.Test.make ~name:"chip lifecycle mirrors record/Hashtbl model" ~count:60
    QCheck.(
      list_of_size Gen.(1 -- 30) (pair (int_bound 3) (int_bound 5)))
    (fun ops ->
      let sim = Sim.create () in
      let chip = Chip.create sim Params.default ~cores:2 in
      let memory = Chip.memory chip in
      let max_threads = 6 in
      let doorbell = Array.init max_threads (fun _ -> Memory.alloc memory 1) in
      let observed = Array.make max_threads 0 in
      (* Reference model: ptid -> record, plus spawn order. *)
      let model : (int, model_thread) Hashtbl.t = Hashtbl.create 8 in
      let spawn_order = ref [] in
      let spawned = ref 0 in
      (* Crash plans armed by the script, consumed by the fault hooks. *)
      let park_crash = Hashtbl.create 4 in
      let wake_crash = Hashtbl.create 4 in
      Chip.set_fault_hooks chip
        {
          Chip.spurious_wake_after = (fun ~ptid:_ -> None);
          start_extra_cycles = (fun ~ptid:_ -> 0);
          crash_park_after =
            (fun ~ptid ->
              if Hashtbl.mem park_crash ptid then begin
                Hashtbl.remove park_crash ptid;
                Some (10, 50)
              end
              else None);
          crash_at_wake =
            (fun ~ptid ->
              if Hashtbl.mem wake_crash ptid then begin
                Hashtbl.remove wake_crash ptid;
                Some 50
              end
              else None);
        };
      let spawn () =
        let i = !spawned in
        if i < max_threads then begin
          incr spawned;
          let ptid = 100 + i in
          let th =
            Chip.add_thread chip ~core:(i mod 2) ~ptid ~mode:Ptid.User ()
          in
          Chip.attach th (fun th ->
              Isa.monitor th doorbell.(i);
              while true do
                ignore (Isa.mwait th);
                observed.(i) <- observed.(i) + 1;
                Isa.exec th 10
              done);
          Chip.boot th;
          Hashtbl.replace model ptid { wakes = 0; crashes = 0 };
          spawn_order := ptid :: !spawn_order
        end
      in
      let apply (op, pick) =
        if op = 0 || !spawned = 0 then spawn ()
        else begin
          let i = pick mod !spawned in
          let ptid = 100 + i in
          let m = Hashtbl.find model ptid in
          (match op with
          | 1 -> m.wakes <- m.wakes + 1
          | 2 ->
            Hashtbl.replace park_crash ptid ();
            m.wakes <- m.wakes + 1;
            m.crashes <- m.crashes + 1
          | _ ->
            Hashtbl.replace wake_crash ptid ();
            m.crashes <- m.crashes + 1);
          Memory.write memory doorbell.(i) 1L
        end
      in
      let step = 1000 in
      Sim.spawn sim (fun () ->
          List.iter
            (fun op ->
              Sim.delay step;
              apply op)
            ops);
      Sim.run ~until:(step * (List.length ops + 5)) sim;
      Chip.clear_fault_hooks chip;
      (* The chip's dense-index bookkeeping must agree with the model. *)
      let per_thread_ok =
        List.for_all
          (fun ptid ->
            let m = Hashtbl.find model ptid in
            let th = Chip.find_thread chip ~ptid in
            observed.(ptid - 100) = m.wakes && Chip.crash_count th = m.crashes)
          !spawn_order
      in
      let total_ok =
        Chip.crash_total chip
        = Hashtbl.fold (fun _ m acc -> acc + m.crashes) model 0
      in
      (* Satellite check: thread_list iterates the dense index range, so
         it must come back in spawn order. *)
      let order_ok =
        List.map Chip.ptid (Chip.thread_list chip) = List.rev !spawn_order
      in
      per_thread_ok && total_ok && order_ok)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_monitor_matches_model; prop_arm_idempotent_on_long_lists; prop_chip_matches_model ]
  in
  Alcotest.run "soa_model" [ ("soa-vs-reference", qsuite) ]
