open Switchless

type t = {
  chip : Chip.t;
  report : rule:string -> key:string -> message:string -> unit;
  writers : Memory.addr -> int list;
  mirror : (int, Ptid.state) Hashtbl.t;
}

let create ~chip ~report ~writers =
  { chip; report; writers; mirror = Hashtbl.create 32 }

let state_name st = Format.asprintf "%a" Ptid.pp_state st

(* A parked thread becomes runnable only by its wake or its deadline. *)
let allowed_transition ~reason = function
  | Ptid.Disabled, Ptid.Runnable (* boot / start-wake *)
  | Ptid.Runnable, Ptid.Disabled (* stop / body-end / fault *)
  | Ptid.Runnable, Ptid.Waiting (* mwait-park *)
  | Ptid.Waiting, Ptid.Disabled (* force-stop *) ->
    true
  | Ptid.Waiting, Ptid.Runnable -> reason = "mwait-wake" || reason = "mwait-deadline"
  | _ -> false

let mirror_state t ptid =
  (* Threads are born disabled, so an unseen ptid mirrors as Disabled. *)
  Option.value ~default:Ptid.Disabled (Hashtbl.find_opt t.mirror ptid)

let on_state_change t ~ptid ~from_ ~to_ ~reason =
  let expected = mirror_state t ptid in
  if expected <> from_ then
    t.report ~rule:"lifecycle"
      ~key:(Printf.sprintf "mirror:%d:%s:%s" ptid (state_name expected) (state_name from_))
      ~message:
        (Printf.sprintf
           "ptid %d transition %s -> %s (%s) but the last observed state was %s: \
            a state change bypassed the probe"
           ptid (state_name from_) (state_name to_) reason (state_name expected));
  if not (allowed_transition ~reason (from_, to_)) then
    t.report ~rule:"lifecycle"
      ~key:(Printf.sprintf "transition:%d:%s:%s" ptid (state_name from_) (state_name to_))
      ~message:
        (Printf.sprintf "ptid %d made illegal transition %s -> %s (%s)" ptid
           (state_name from_) (state_name to_) reason);
  Hashtbl.replace t.mirror ptid to_

let pp_entry ppf = function
  | None -> Format.pp_print_string ppf "no entry"
  | Some (ptid, perms) -> Format.fprintf ppf "ptid %d perms %a" ptid Tdt.pp_perms perms

let on_translated t ~actor ~vtid ~table ~used =
  let authoritative = Tdt.lookup table ~vtid in
  if used <> authoritative then
    t.report ~rule:"stale-tdt"
      ~key:(Printf.sprintf "stale:%d:%d:%d" (Tdt.id table) vtid actor)
      ~message:
        (Format.asprintf
           "ptid %d used a stale cached translation for vtid %d of table %d: \
            hardware acted on %a but the table now says %a — an invtid is \
            missing after a table update"
           actor vtid (Tdt.id table) pp_entry used pp_entry authoritative)

let on_reg_access t ~insn ~actor ~target =
  if mirror_state t target <> Ptid.Disabled then
    t.report ~rule:"lifecycle"
      ~key:(Printf.sprintf "%s:%d:%d" insn actor target)
      ~message:
        (Printf.sprintf
           "ptid %d performed %s on ptid %d, whose mirrored state is %s (must \
            be Disabled)"
           actor insn target
           (state_name (mirror_state t target)))

let on_parked t ~ptid =
  let th = Chip.find_thread t.chip ~ptid in
  if Chip.armed th = [] then
    t.report ~rule:"mwait"
      ~key:(Printf.sprintf "no-monitor:%d" ptid)
      ~message:
        (Printf.sprintf
           "ptid %d parked in mwait with no armed monitor address: nothing can \
            ever wake it except a force-stop"
           ptid)

let on_event t = function
  | Probe.State_change { ptid; from_; to_; reason } ->
    on_state_change t ~ptid ~from_ ~to_ ~reason
  | Probe.Translated { actor; vtid; table; used; outcome = `Hit } ->
    on_translated t ~actor ~vtid ~table ~used
  | Probe.Translated { outcome = `Miss; _ } -> ()
  | Probe.Reg_pull { actor; target; _ } ->
    on_reg_access t ~insn:"rpull" ~actor ~target
  | Probe.Reg_push { actor; target; _ } ->
    on_reg_access t ~insn:"rpush" ~actor ~target
  | Probe.Mwait_parked { ptid } -> on_parked t ~ptid
  | Probe.Mem_read _ | Probe.Mem_write _ | Probe.Start_edge _ | Probe.Stop_edge _
  | Probe.Monitor_armed _ | Probe.Mwait_woke _ | Probe.Invtid_issued _
  | Probe.Exception_raised _ | Probe.Mwait_timeout _ | Probe.Fault_injected _ ->
    ()

let check_stores t =
  for core = 0 to Chip.core_count t.chip - 1 do
    List.iter
      (fun issue ->
        t.report ~rule:"state-store"
          ~key:(Printf.sprintf "store:%d:%s" core issue)
          ~message:(Printf.sprintf "core %d state store: %s" core issue))
      (State_store.check (Chip.state_store t.chip core))
  done

(* Deadlock heuristic at end of run.  A Waiting thread is a deadlock
   candidate when every address it armed (a) has been written at least
   once (an idle worker parked on a fresh doorbell is just idle), and
   (b) has no external writer (DMA / dispatcher processes outside the
   tracked ISA could still ring it).  Among candidates, thread [w] waits
   on thread [v] when [v] is the only kind of agent that ever stored to
   one of [w]'s doorbells; candidates that cannot reach a cycle in this
   wait-for graph are pruned, and whatever remains is mutually stuck. *)
let check_deadlock t ~addr_writes =
  let waiting =
    List.filter (fun th -> Chip.state th = Ptid.Waiting) (Chip.thread_list t.chip)
  in
  let info = List.map (fun th -> (Chip.ptid th, Chip.armed th)) waiting
  in
  let exempt (_, addrs) =
    addrs = []
    || List.exists
         (fun a ->
           let total, tracked = addr_writes a in
           total = 0 || total > tracked)
         addrs
  in
  let candidates = List.filter (fun x -> not (exempt x)) info in
  let cand = Hashtbl.create 8 in
  List.iter (fun (p, _) -> Hashtbl.replace cand p ()) candidates;
  let edges p addrs =
    List.concat_map t.writers addrs
    |> List.sort_uniq compare
    |> List.filter (fun v -> v <> p && Hashtbl.mem cand v)
  in
  let remaining = ref candidates in
  let changed = ref true in
  while !changed do
    changed := false;
    let live = Hashtbl.create 8 in
    List.iter (fun (p, _) -> Hashtbl.replace live p ()) !remaining;
    remaining :=
      List.filter
        (fun (p, addrs) ->
          let keep = List.exists (fun v -> Hashtbl.mem live v) (edges p addrs) in
          if not keep then changed := true;
          keep)
        !remaining
  done;
  match !remaining with
  | [] -> ()
  | stuck ->
    let ids = List.map (fun (p, _) -> string_of_int p) stuck in
    let sim_note =
      match Sl_engine.Sim.stuck_summary (Chip.sim t.chip) with
      | Some s -> "; engine reports " ^ s
      | None -> ""
    in
    t.report ~rule:"deadlock"
      ~key:("deadlock:" ^ String.concat "," ids)
      ~message:
        (Printf.sprintf
           "mwait cycle: ptid(s) %s are all Waiting and each can only be woken \
            by a store from another Waiting member%s"
           (String.concat ", " ids) sim_note)

let finish t ~addr_writes =
  check_stores t;
  check_deadlock t ~addr_writes
