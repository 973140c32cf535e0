open Switchless
module Sim = Sl_engine.Sim
module Trace = Sl_engine.Trace

type config = { check_reads : bool }

let default_config = { check_reads = false }

let max_findings = 100  (* distinct ones recorded per chip; the rest are discarded *)
let trace_capacity = 64  (* probe events kept as a finding's context *)

type counts = { mutable total : int; mutable tracked : int }

type t = {
  chip : Chip.t;
  trace : Probe.event Trace.t;
  writes : (Memory.addr, counts) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
  mutable findings_rev : Report.finding list;
  mutable events : int;
  mutable race : Race_detector.t option;
  mutable sanitizer : Sanitizer.t option;
  mutable finished : bool;
}

let counts_for t addr =
  match Hashtbl.find_opt t.writes addr with
  | Some c -> c
  | None ->
    let c = { total = 0; tracked = 0 } in
    Hashtbl.replace t.writes addr c;
    c

let addr_writes t addr =
  match Hashtbl.find_opt t.writes addr with
  | None -> (0, 0)
  | Some c -> (c.total, c.tracked)

(* Rendered only when a finding is recorded: probe events stay typed in
   the ring until then. *)
let context t =
  List.map
    (fun (time, ev) -> Printf.sprintf "t=%d %s" time (Format.asprintf "%a" Probe.pp ev))
    (Trace.events t.trace)

let record t ~rule ~key ~message =
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    if List.length t.findings_rev < max_findings then
      t.findings_rev <-
        {
          Report.rule;
          key;
          time = Sim.time (Chip.sim t.chip);
          message;
          context = context t;
        }
        :: t.findings_rev
  end

(* Audit the state stores on a coarse cadence so placement-accounting bugs
   surface near where they happen, not only at the end of the run. *)
let store_check_period = 4096

let on_probe_event t ev =
  Trace.record t.trace (Chip.sim t.chip) ev;
  (match ev with
  | Probe.Mem_write { addr; _ } -> (counts_for t addr).tracked <- (counts_for t addr).tracked + 1
  | _ -> ());
  (match t.race with Some r -> Race_detector.on_event r ev | None -> ());
  (match t.sanitizer with Some s -> Sanitizer.on_event s ev | None -> ());
  t.events <- t.events + 1;
  if t.events mod store_check_period = 0 then
    match t.sanitizer with Some s -> Sanitizer.check_stores s | None -> ()

let enable ?(config = default_config) chip =
  let t =
    {
      chip;
      trace = Trace.create ~capacity:trace_capacity ();
      writes = Hashtbl.create 256;
      seen = Hashtbl.create 64;
      findings_rev = [];
      events = 0;
      race = None;
      sanitizer = None;
      finished = false;
    }
  in
  let report ~rule ~key ~message = record t ~rule ~key ~message in
  let race = Race_detector.create ~check_reads:config.check_reads
      ~now:(fun () -> Sim.time (Chip.sim chip))
      ~report
  in
  let sanitizer =
    Sanitizer.create ~chip ~report ~writers:(Race_detector.writers race)
  in
  t.race <- Some race;
  t.sanitizer <- Some sanitizer;
  Memory.add_write_hook (Chip.memory chip) (fun addr _value ->
      (counts_for t addr).total <- (counts_for t addr).total + 1);
  Chip.set_probe chip (on_probe_event t);
  t

let findings t = List.rev t.findings_rev

let finish t =
  if not t.finished then begin
    t.finished <- true;
    (match t.sanitizer with
    | Some s -> Sanitizer.finish s ~addr_writes:(addr_writes t)
    | None -> ());
    Chip.clear_probe t.chip
  end;
  findings t

let with_all f =
  let active = ref [] in
  let result =
    Sim.observing ~key:"analysis"
      (function Chip.Chip chip -> active := enable chip :: !active | _ -> ())
      f
  in
  (result, List.concat_map finish (List.rev !active))
