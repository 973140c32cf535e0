module Rng = Sl_util.Rng
module Chip = Switchless.Chip
module Monitor = Switchless.Monitor
module State_store = Switchless.State_store
module Nic = Sl_dev.Nic
module Nvme = Sl_dev.Nvme
module Irq = Sl_baseline.Irq

type plan = {
  seed : int64;
  nic_doorbell_drop : float;
  nic_doorbell_dup : float;
  nic_dma_drop : float;
  nvme_stall : float;
  nvme_stall_cycles : int;
  mwait_lost : float;
  mwait_spurious : float;
  mwait_spurious_delay : int;
  start_delay : float;
  start_delay_cycles : int;
  store_ecc : float;
  store_silent : float;
  ipi_drop : float;
  crash_park : float;
  crash_wake : float;
  crash_park_delay : int;
  crash_restart_cycles : int;
  crash_boot_window : int;
}

let none =
  {
    seed = 1L;
    nic_doorbell_drop = 0.0;
    nic_doorbell_dup = 0.0;
    nic_dma_drop = 0.0;
    nvme_stall = 0.0;
    nvme_stall_cycles = 50_000;
    mwait_lost = 0.0;
    mwait_spurious = 0.0;
    mwait_spurious_delay = 500;
    start_delay = 0.0;
    start_delay_cycles = 2_000;
    store_ecc = 0.0;
    store_silent = 0.0;
    ipi_drop = 0.0;
    crash_park = 0.0;
    crash_wake = 0.0;
    crash_park_delay = 2_000;
    crash_restart_cycles = 25_000;
    crash_boot_window = 0;
  }

let is_active p =
  p.nic_doorbell_drop > 0.0 || p.nic_doorbell_dup > 0.0 || p.nic_dma_drop > 0.0
  || p.nvme_stall > 0.0 || p.mwait_lost > 0.0 || p.mwait_spurious > 0.0
  || p.start_delay > 0.0 || p.store_ecc > 0.0 || p.store_silent > 0.0
  || p.ipi_drop > 0.0 || p.crash_park > 0.0 || p.crash_wake > 0.0

(* --- spec strings ------------------------------------------------------- *)

(* One row per plan field: spec key, getter, setter.  The spec syntax is
   "seed=42,nic.doorbell_drop=0.01,..." — the artifact-friendly encoding
   recorded in every experiment's JSON header. *)

type field =
  | Prob of string * (plan -> float) * (plan -> float -> plan)
  | Cycles of string * (plan -> int) * (plan -> int -> plan)

let fields =
  [
    Prob
      ( "nic.doorbell_drop",
        (fun p -> p.nic_doorbell_drop),
        fun p v -> { p with nic_doorbell_drop = v } );
    Prob
      ( "nic.doorbell_dup",
        (fun p -> p.nic_doorbell_dup),
        fun p v -> { p with nic_doorbell_dup = v } );
    Prob
      ( "nic.dma_drop",
        (fun p -> p.nic_dma_drop),
        fun p v -> { p with nic_dma_drop = v } );
    Prob ("nvme.stall", (fun p -> p.nvme_stall), fun p v -> { p with nvme_stall = v });
    Cycles
      ( "nvme.stall_cycles",
        (fun p -> p.nvme_stall_cycles),
        fun p v -> { p with nvme_stall_cycles = v } );
    Prob ("mwait.lost", (fun p -> p.mwait_lost), fun p v -> { p with mwait_lost = v });
    Prob
      ( "mwait.spurious",
        (fun p -> p.mwait_spurious),
        fun p v -> { p with mwait_spurious = v } );
    Cycles
      ( "mwait.spurious_delay",
        (fun p -> p.mwait_spurious_delay),
        fun p v -> { p with mwait_spurious_delay = v } );
    Prob ("start.delay", (fun p -> p.start_delay), fun p v -> { p with start_delay = v });
    Cycles
      ( "start.delay_cycles",
        (fun p -> p.start_delay_cycles),
        fun p v -> { p with start_delay_cycles = v } );
    Prob ("store.ecc", (fun p -> p.store_ecc), fun p v -> { p with store_ecc = v });
    Prob ("store.silent", (fun p -> p.store_silent), fun p v -> { p with store_silent = v });
    Prob ("ipi.drop", (fun p -> p.ipi_drop), fun p v -> { p with ipi_drop = v });
    Prob ("crash.park", (fun p -> p.crash_park), fun p v -> { p with crash_park = v });
    Prob ("crash.wake", (fun p -> p.crash_wake), fun p v -> { p with crash_wake = v });
    Cycles
      ( "crash.park_delay",
        (fun p -> p.crash_park_delay),
        fun p v -> { p with crash_park_delay = v } );
    Cycles
      ( "crash.restart_cycles",
        (fun p -> p.crash_restart_cycles),
        fun p v -> { p with crash_restart_cycles = v } );
    Cycles
      ( "crash.boot_window",
        (fun p -> p.crash_boot_window),
        fun p v -> { p with crash_boot_window = v } );
  ]

let field_key = function Prob (k, _, _) | Cycles (k, _, _) -> k

let prob_keys =
  List.filter_map (function Prob (k, _, _) -> Some k | Cycles _ -> None) fields

let cycles_keys =
  List.filter_map (function Cycles (k, _, _) -> Some k | Prob _ -> None) fields

let find_field kind key =
  match List.find_opt (fun f -> field_key f = key) fields with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Fault.%s: unknown key %S" kind key)

let prob p key =
  match find_field "prob" key with
  | Prob (_, get, _) -> get p
  | Cycles _ -> invalid_arg (Printf.sprintf "Fault.prob: %S is a cycles knob" key)

let with_prob p key v =
  if not (v >= 0.0 && v <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.with_prob: %S out of [0,1]" key);
  match find_field "with_prob" key with
  | Prob (_, _, set) -> set p v
  | Cycles _ ->
    invalid_arg (Printf.sprintf "Fault.with_prob: %S is a cycles knob" key)

let cycles p key =
  match find_field "cycles" key with
  | Cycles (_, get, _) -> get p
  | Prob _ -> invalid_arg (Printf.sprintf "Fault.cycles: %S is a prob knob" key)

let with_cycles p key v =
  if v < 0 then invalid_arg (Printf.sprintf "Fault.with_cycles: %S negative" key);
  match find_field "with_cycles" key with
  | Cycles (_, _, set) -> set p v
  | Prob _ ->
    invalid_arg (Printf.sprintf "Fault.with_cycles: %S is a prob knob" key)

(* Shortest decimal that parses back to exactly [f]: "%g" (6 significant
   digits) covers every hand-written probability; raw RNG-drawn doubles
   fall through to more digits until the round-trip is exact, so a spec
   replayed from its string reproduces the schedule bit-for-bit. *)
let float_repr f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_spec p =
  let parts =
    Printf.sprintf "seed=%Ld" p.seed
    :: List.filter_map
         (function
           | Prob (k, get, _) ->
             if get p > 0.0 then Some (Printf.sprintf "%s=%s" k (float_repr (get p)))
             else None
           | Cycles (k, get, _) ->
             if get p <> get none then Some (Printf.sprintf "%s=%d" k (get p))
             else None)
         fields
  in
  String.concat "," parts

let parse_spec spec =
  let ( let* ) = Result.bind in
  let parse_pair acc part =
    let* p = acc in
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "fault spec: %S is not key=value" part)
    | Some i -> (
      let key = String.trim (String.sub part 0 i) in
      let value =
        String.trim (String.sub part (i + 1) (String.length part - i - 1))
      in
      if key = "seed" then
        match Int64.of_string_opt value with
        | Some s -> Ok { p with seed = s }
        | None -> Error (Printf.sprintf "fault spec: bad seed %S" value)
      else
        match List.find_opt (fun f -> field_key f = key) fields with
        | None -> Error (Printf.sprintf "fault spec: unknown key %S" key)
        | Some (Prob (_, _, set)) -> (
          match float_of_string_opt value with
          | Some v when v >= 0.0 && v <= 1.0 -> Ok (set p v)
          | Some _ ->
            Error (Printf.sprintf "fault spec: %s=%s out of [0,1]" key value)
          | None -> Error (Printf.sprintf "fault spec: bad float %S for %s" value key))
        | Some (Cycles (_, _, set)) -> (
          match int_of_string_opt value with
          | Some v when v >= 0 -> Ok (set p v)
          | Some _ -> Error (Printf.sprintf "fault spec: %s=%s negative" key value)
          | None -> Error (Printf.sprintf "fault spec: bad int %S for %s" value key)))
  in
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.fold_left parse_pair (Ok none)

(* --- the injector ------------------------------------------------------- *)

(* Counter keys, in reporting order. *)
let count_keys =
  [
    "nic.doorbell_drop";
    "nic.doorbell_dup";
    "nic.dma_drop";
    "nvme.stall";
    "mwait.lost";
    "mwait.spurious";
    "start.delay";
    "store.ecc";
    "store.silent";
    "ipi.drop";
    "crash.park";
    "crash.wake";
  ]

type t = {
  plan : plan;
  (* One independent stream per fault class, split from the seed in a
     fixed order, so adding draws in one subsystem never perturbs
     another's schedule. *)
  nic_rng : Rng.t;
  nvme_rng : Rng.t;
  mwait_rng : Rng.t;
  start_rng : Rng.t;
  store_rng : Rng.t;
  ipi_rng : Rng.t;
  crash_rng : Rng.t;
  counters : (string, int) Hashtbl.t;
}

let create plan =
  let root = Rng.create plan.seed in
  let nic_rng = Rng.split root in
  let nvme_rng = Rng.split root in
  let mwait_rng = Rng.split root in
  let start_rng = Rng.split root in
  let store_rng = Rng.split root in
  let ipi_rng = Rng.split root in
  (* Split last so pre-crash plans keep their historical streams. *)
  let crash_rng = Rng.split root in
  {
    plan;
    nic_rng;
    nvme_rng;
    mwait_rng;
    start_rng;
    store_rng;
    ipi_rng;
    crash_rng;
    counters = Hashtbl.create 16;
  }

let plan t = t.plan

let bump t key =
  Hashtbl.replace t.counters key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counters key))

let count t key = Option.value ~default:0 (Hashtbl.find_opt t.counters key)

let counts t =
  List.filter_map
    (fun key -> match count t key with 0 -> None | n -> Some (key, n))
    count_keys

let total_injected t = List.fold_left (fun acc (_, n) -> acc + n) 0 (counts t)

(* A Bernoulli draw that consumes no randomness when the fault class is
   disabled, so a plan exercising one class leaves every other stream —
   and therefore the simulated schedule — untouched. *)
let draw t rng key p = p > 0.0 && Rng.float rng < p && (bump t key; true)

let attach_nic t nic =
  Nic.set_faults nic
    {
      Nic.dma_drop =
        (fun ~queue:_ -> draw t t.nic_rng "nic.dma_drop" t.plan.nic_dma_drop);
      doorbell_drop =
        (fun ~queue:_ ->
          draw t t.nic_rng "nic.doorbell_drop" t.plan.nic_doorbell_drop);
      doorbell_dup =
        (fun ~queue:_ ->
          draw t t.nic_rng "nic.doorbell_dup" t.plan.nic_doorbell_dup);
    }

let attach_nvme t nvme =
  Nvme.set_stall_fault nvme (fun () ->
      if draw t t.nvme_rng "nvme.stall" t.plan.nvme_stall then
        Some t.plan.nvme_stall_cycles
      else None)

let attach_irq t irq =
  Irq.set_ipi_drop_fault irq (fun () ->
      draw t t.ipi_rng "ipi.drop" t.plan.ipi_drop)

let attach_chip t chip =
  Monitor.set_fault_hook (Chip.monitor_table chip) (fun () ->
      draw t t.mwait_rng "mwait.lost" t.plan.mwait_lost);
  (* crash.boot_window > 0 correlates the crashes: they can only land
     before that simulated instant (boot/warm-up storms), after which the
     system must recover to quiescence on its own.  The time check runs
     before the draw, so the window also gates randomness consumption. *)
  let in_crash_window () =
    t.plan.crash_boot_window = 0
    || Sl_engine.Sim.time (Chip.sim chip) < t.plan.crash_boot_window
  in
  Chip.set_fault_hooks chip
    {
      Chip.spurious_wake_after =
        (fun ~ptid:_ ->
          if draw t t.mwait_rng "mwait.spurious" t.plan.mwait_spurious then
            Some t.plan.mwait_spurious_delay
          else None);
      start_extra_cycles =
        (fun ~ptid:_ ->
          if draw t t.start_rng "start.delay" t.plan.start_delay then
            t.plan.start_delay_cycles
          else 0);
      crash_park_after =
        (fun ~ptid:_ ->
          if in_crash_window ()
             && draw t t.crash_rng "crash.park" t.plan.crash_park
          then
            Some
              ( Rng.int t.crash_rng (Int.max 1 t.plan.crash_park_delay),
                t.plan.crash_restart_cycles )
          else None);
      crash_at_wake =
        (fun ~ptid:_ ->
          if in_crash_window ()
             && draw t t.crash_rng "crash.wake" t.plan.crash_wake
          then Some t.plan.crash_restart_cycles
          else None);
    };
  for core = 0 to Chip.core_count chip - 1 do
    State_store.set_fault_hook (Chip.state_store chip core) (fun ~ptid:_ ->
        if draw t t.store_rng "store.ecc" t.plan.store_ecc then
          Some State_store.Ecc_corrected
        else if draw t t.store_rng "store.silent" t.plan.store_silent then
          Some State_store.Silent
        else None)
  done

let with_ambient t f =
  Sl_engine.Sim.observing ~key:"fault"
    (function
      | Chip.Chip c -> attach_chip t c
      | Nic.Nic n -> attach_nic t n
      | Nvme.Nvme d -> attach_nvme t d
      | Irq.Irq i -> attach_irq t i
      | _ -> ())
    f
