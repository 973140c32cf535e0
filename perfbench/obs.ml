(* Outside-in observation of simulation worlds.

   Everything here goes through the simulator's public hooks and stats:
   [Sim.set_creation_hook] sees every world, [Chip.add_creation_hook]
   every chip, [Nic.set_creation_hook] every NIC.  Host time is read only
   around calls the benchmark itself makes, so nothing under lib/ is
   edited or re-timed.

   Set-up time is measured with a marker: the world-creation hook reads
   the host clock and schedules a no-op event at simulated time 0.  That
   event is the world's first, so the time from [Sim.create] to it covers
   input generation and the construction and boot of every chip, thread
   and NIC.  The marker adds exactly one engine event per world and
   changes no simulated result. *)

module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Probe = Switchless.Probe
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core
module Nic = Sl_dev.Nic

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* String-keyed sums.  Keys are metric names; output is always sorted,
   so the table's iteration order never leaks into results. *)
module Tally = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let add_all t kvs = List.iter (fun (k, v) -> add t k v) kvs
end

(* What a workload's world function returns: its verdict and the
   simulated statistics it read through public stats. *)
type world = {
  label : string;  (** Unique within a round, e.g. ["lock.tas.64"]. *)
  layer : string;  (** Span key of the layer the world exercises. *)
  ops : int;  (** Ops completed. *)
  attempted : int;  (** Ops the world was asked to complete. *)
  ok : bool;  (** The correctness oracle's verdict. *)
  text : string;  (** Rendering of every simulated statistic read. *)
  model : (string * float) list;  (** Simulated counts to tally. *)
  host : (string * float) list;  (** Host-time spans taken inside the world. *)
}

(* One observed world call. *)
type sample = {
  w : world;
  setup_ns : int;  (** [Sim.create] to first event, summed over its worlds. *)
  call_ns : int;  (** The whole call: set-up, run and result extraction. *)
  events : int;
  worlds : int;
  alloc_words : float;
  minor : int;
  major : int;
  digest_text : string;  (** [w.text] plus chip-level simulated stats. *)
  chip_model : (string * float) list;  (** Chip, probe and NIC counts. *)
}

type probe_counts = {
  mutable arms : int;
  mutable parks : int;
  mutable woke : int;
  mutable immediate : int;
  mutable state_changes : int;
}

type t = {
  traced : bool;
  probe : probe_counts;
  mutable sims : (Sim.t * int * int ref) list;
  mutable chips : Chip.t list;
  mutable nics : Nic.t list;
}

let on_probe c = function
  | Probe.Monitor_armed _ -> c.arms <- c.arms + 1
  | Probe.Mwait_parked _ -> c.parks <- c.parks + 1
  | Probe.Mwait_woke { immediate = true; _ } -> c.immediate <- c.immediate + 1
  | Probe.Mwait_woke _ -> c.woke <- c.woke + 1
  | Probe.State_change _ -> c.state_changes <- c.state_changes + 1
  | _ -> ()

let hook_key = "perfbench"

(* [traced] adds the chip probe and NIC capture; the creation hooks for
   worlds and chips are on in every run, since set-up time and the
   fingerprint need them. *)
let install ~traced =
  let t =
    {
      traced;
      probe = { arms = 0; parks = 0; woke = 0; immediate = 0; state_changes = 0 };
      sims = [];
      chips = [];
      nics = [];
    }
  in
  Sim.set_creation_hook (fun sim ->
      let created = now_ns () in
      let first = ref 0 in
      Sim.schedule sim ~at:0 (fun () -> first := now_ns ());
      t.sims <- (sim, created, first) :: t.sims);
  Chip.add_creation_hook ~key:hook_key (fun chip ->
      t.chips <- chip :: t.chips;
      if traced then Chip.set_probe chip (on_probe t.probe));
  if traced then Nic.set_creation_hook (fun nic -> t.nics <- nic :: t.nics);
  t

let uninstall t =
  Sim.clear_creation_hook ();
  Chip.remove_creation_hook ~key:hook_key;
  if t.traced then Nic.clear_creation_hook ()

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Simulated chip statistics, rendered for the fingerprint and tallied
   for the per-layer metrics.  Thread counts come from [thread_list],
   which sorts, so they are read only when tracing. *)
let chip_stats ~traced chips =
  let b = Buffer.create 256 in
  let model = ref [] in
  let add k v = model := (k, v) :: !model in
  List.iter
    (fun chip ->
      let s = Chip.stats chip in
      let work kind =
        let acc = ref 0.0 in
        for c = 0 to Chip.core_count chip - 1 do
          acc := !acc +. Smt_core.work_done (Chip.exec_core chip c) kind
        done;
        !acc
      in
      let useful = work Smt_core.Useful
      and poll = work Smt_core.Poll
      and overhead = work Smt_core.Overhead in
      let writes = Memory.write_count (Chip.memory chip) in
      Printf.bprintf b "|chip wk=%d st=%d ex=%d rf=%d l2=%d l3=%d dram=%d dem=%d w=%d u=%h p=%h o=%h"
        s.Chip.total_wakeups s.Chip.total_starts s.Chip.total_exceptions s.Chip.rf_wakes
        s.Chip.l2_wakes s.Chip.l3_wakes s.Chip.dram_wakes s.Chip.demotions writes useful
        poll overhead;
      add "chip.starts" (float_of_int s.Chip.total_starts);
      add "state_store.rf_wakes" (float_of_int s.Chip.rf_wakes);
      add "state_store.l2_wakes" (float_of_int s.Chip.l2_wakes);
      add "state_store.l3_wakes" (float_of_int s.Chip.l3_wakes);
      add "state_store.dram_wakes" (float_of_int s.Chip.dram_wakes);
      add "state_store.demotions" (float_of_int s.Chip.demotions);
      add "memory.writes" (float_of_int writes);
      add "smt_core.useful_cycles" useful;
      add "smt_core.poll_cycles" poll;
      add "smt_core.overhead_cycles" overhead;
      if traced then add "chip.threads" (float_of_int (List.length (Chip.thread_list chip))))
    chips;
  (Buffer.contents b, !model)

let reset_probe c =
  c.arms <- 0;
  c.parks <- 0;
  c.woke <- 0;
  c.immediate <- 0;
  c.state_changes <- 0

(* Run one world function under observation.  Only the call itself sits
   inside the host-time span; the GC and stats reads bracket it.  Every
   world starts from a collected heap, so the minor collections inside
   its window, and with them the allocation reading and the heap's
   growth, are the same in every round. *)
let observe t (f : unit -> world) =
  t.sims <- [];
  t.chips <- [];
  t.nics <- [];
  reset_probe t.probe;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ns () in
  let w = f () in
  let t1 = now_ns () in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  let sims = List.rev t.sims in
  let setup_ns = sum (fun (_, created, first) -> if !first = 0 then 0 else !first - created) sims in
  let events = sum (fun (sim, _, _) -> Sim.events_processed sim) sims in
  let cycles = sum (fun (sim, _, _) -> Sim.time sim) sims in
  let chip_text, chip_model = chip_stats ~traced:t.traced (List.rev t.chips) in
  let probe_model =
    if not t.traced then []
    else
      let c = t.probe in
      [
        ("chip.monitor_arms", float_of_int c.arms);
        ("chip.mwait_parks", float_of_int c.parks);
        ("chip.mwait_wakes", float_of_int c.woke);
        ("chip.mwait_immediate", float_of_int c.immediate);
        ("chip.state_changes", float_of_int c.state_changes);
        ("nic.delivered", float_of_int (sum Nic.delivered t.nics));
        ("nic.dropped", float_of_int (sum Nic.dropped t.nics));
      ]
  in
  {
    w;
    setup_ns;
    call_ns = t1 - t0;
    events;
    worlds = List.length sims;
    alloc_words = (a1 -. a0) /. 8.0;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    digest_text = Printf.sprintf "%s|%s|cycles=%d%s" w.label w.text cycles chip_text;
    chip_model = (("sim.cycles", float_of_int cycles) :: chip_model) @ probe_model;
  }
