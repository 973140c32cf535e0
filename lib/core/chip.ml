module Sim = Sl_engine.Sim

exception Halted of string

type core = {
  exec_unit : Smt_core.t;
  store : State_store.t;
  cache : Tdt.Cache.cache;
}

type fault_hooks = {
  spurious_wake_after : ptid:int -> int option;
      (* Sampled when a thread parks: [Some d] fires its wake callback
         [d] cycles later with no triggering write. *)
  start_extra_cycles : ptid:int -> int;
      (* Sampled on every start hand-off: extra cycles added to the wakeup
         latency (a delayed inter-core start message). *)
  crash_park_after : ptid:int -> (int * int) option;
      (* Sampled when a thread parks: [Some (after, restart)] crash-stops
         it [after] cycles into the park (if still parked) and restarts it
         cold [restart] cycles after the crash. *)
  crash_at_wake : ptid:int -> int option;
      (* Sampled as a wake is consumed: [Some restart] crash-stops the
         thread at the wake boundary — after the triggering write is
         consumed, before any of it is processed (the mid-request death).
         Restarted cold [restart] cycles later. *)
}

(* Wake-cell values: a monitored-write (or spurious) wake carries the
   written address ([>= 0]); the negative codes are the other park
   outcomes (the constructors of the old [wake_event] variant). *)
let wake_stop = -1  (* force-stopped while waiting *)
let wake_deadline = -2  (* mwait_for deadline expired *)
let wake_crash = -3  (* crash-stopped while parked: unwind the body *)

(* The wake cell of one park round. *)
type cell =
  | Idle  (* no park in progress *)
  | Open  (* parked, no event delivered yet *)
  | Full  (* event delivered, value in [wval] *)

(* Per-thread state is one record per hardware thread, the paper's
   per-thread descriptor (§3.2, Table 1): a wakeup reads and writes that
   record instead of chasing five separately-allocated objects (thread
   record, Ptid record, wake Ivar, monitor state, store entry), and the
   park/wake protocol reuses the record's wake cell ([epoch]/[cell]/
   [wval]) instead of allocating an Ivar + constructor per park.  The
   epoch counts park rounds: events scheduled against an earlier round
   (a wake in flight when a force-stop claimed the park) compare their
   captured epoch and stand down.

   The [tids] table maps ptid -> handle on the cold paths (construction,
   TDT translation); everything per-event goes through the handle.
   Externally visible identifiers — probe events, exception descriptors,
   SMT / state-store keys, fault hooks — always carry the real ptid. *)
type t = {
  sim : Sim.t;
  params : Params.t;
  memory : Memory.t;
  monitor : Monitor.t;
  cores : core array;
  tids : (int, thread) Hashtbl.t;  (* ptid -> handle *)
  mutable threads : thread list;  (* every handle, newest first *)
  mutable halted_reason : string option;
  mutable exn_seq : int64;
  mutable exn_count : int;
  mutable probe : (Probe.event -> unit) option;
  mutable probe_on : bool;
      (* Guards probe-event construction at emit sites: with no probe
         installed (the perf configuration) not even the event record is
         allocated. *)
  mutable faults : fault_hooks option;
}

(* One hardware thread, allocated once at [add_thread] and shared by
   every [find_thread]/[thread_list].  The wake path's fields come
   first; the closures are fixed at [add_thread].

   In-flight wake delivery: the scheduled event is the preallocated
   [deliver] thunk reading its (epoch, addr) from [pend_epoch]/
   [pend_addr], so the steady-state wake path schedules without
   allocating.  At most one delivery per thread is normally in flight
   (the monitor waiter is consumed when it fires and only re-registered
   by the next mwait, which runs after the delivery); the rare overlap —
   force-stop + restart + re-park + second wake inside the first
   delivery's latency window — falls back to a capturing closure (see
   [monitor_wake]). *)
and thread = {
  chip : t;
  mutable state : Ptid.state;
  mutable epoch : int;  (* park rounds so far *)
  mutable cell : cell;
  mutable wval : int;  (* wake value (addr >= 0 or a wake_* code) *)
  mutable resume : Sim.waker;  (* the parked body's waker *)
  mutable pending : bool;  (* [deliver] is scheduled *)
  mutable pend_epoch : int;
  mutable pend_addr : Memory.addr;
  mutable wakeups : int;
  core_id : int;  (* home core *)
  mslot : int;  (* Monitor slot *)
  smt : int;  (* Smt_core slot on the home core *)
  t_ptid : int;
  weight : float;
  wake : Memory.addr -> unit;  (* monitor waiter *)
  mutable suspension : Sim.suspension;  (* the body's park point, see [wake_body] *)
  deliver : unit -> unit;  (* wake-delivery event *)
  mutable starts : int;
  mutable spawned : bool;  (* body spawned at least once *)
  mutable pending_start : bool;  (* latched start, absorbs the next stop *)
  mutable crashed : bool;  (* crash-stopped, cold restart not yet run *)
  supervisor : bool;
  mutable crashes : int;
  regs : Regstate.t;
  mutable body : (thread -> unit) option;
  mutable tdt : Tdt.t option;
  mutable secret : int64 option;
}

(* Raised inside a crash-stopped thread's body to unwind its instruction
   stream; caught in [run_body], never escapes the chip. *)
exception Crash_stop

(* Consulted at the end of [create]: lets observer libraries (analysis,
   fault injection) attach themselves to every chip built anywhere —
   including deep inside experiment runners — without the core depending
   on them.  Keyed so several observers can coexist; domain-local so
   observers installed by one parallel experiment runner never attach to
   chips built by another. *)
let creation_hooks : (string * (t -> unit)) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let add_creation_hook ~key f =
  Domain.DLS.set creation_hooks
    (List.filter (fun (k, _) -> k <> key) (Domain.DLS.get creation_hooks)
    @ [ (key, f) ])

let remove_creation_hook ~key =
  Domain.DLS.set creation_hooks
    (List.filter (fun (k, _) -> k <> key) (Domain.DLS.get creation_hooks))

let create sim params ~cores =
  if cores <= 0 then invalid_arg "Chip.create: need at least one core";
  let memory = Memory.create () in
  let monitor = Monitor.create params in
  Monitor.attach monitor memory;
  {
    sim;
    params;
    memory;
    monitor;
    cores =
      Array.init cores (fun core_id ->
          {
            exec_unit = Smt_core.create sim params ~core_id;
            store = State_store.create params;
            cache = Tdt.Cache.create ();
          });
    tids = Hashtbl.create 64;
    threads = [];
    halted_reason = None;
    exn_seq = 0L;
    exn_count = 0;
    probe = None;
    probe_on = false;
    faults = None;
  }

let create sim params ~cores =
  let t = create sim params ~cores in
  List.iter (fun (_, f) -> f t) (Domain.DLS.get creation_hooks);
  t

let set_probe t f =
  t.probe <- Some f;
  t.probe_on <- true

let clear_probe t =
  t.probe <- None;
  t.probe_on <- false

let set_fault_hooks t f = t.faults <- Some f
let clear_fault_hooks t = t.faults <- None

let emit t ev = match t.probe with None -> () | Some f -> f ev

let sim t = t.sim
let params t = t.params
let memory t = t.memory
let monitor_table t = t.monitor
let core_count t = Array.length t.cores
let core t core_id = t.cores.(core_id)
let exec_core t core_id = (core t core_id).exec_unit
let state_store t core_id = (core t core_id).store
let halted t = t.halted_reason

let exists t ptid = Hashtbl.mem t.tids ptid

let handle_of t ptid = Hashtbl.find_opt t.tids ptid

let thread_list t = List.sort (fun a b -> compare a.t_ptid b.t_ptid) t.threads

let find_thread t ~ptid =
  match handle_of t ptid with
  | Some th -> th
  | None -> invalid_arg "Chip.find_thread: unknown ptid"

let attach th body =
  match th.body with
  | Some _ -> invalid_arg "Chip.attach: body already attached"
  | None -> th.body <- Some body

let ptid th = th.t_ptid
let home_core th = th.core_id
let state th = th.state
let mode th = if th.supervisor then Ptid.Supervisor else Ptid.User
let is_supervisor th = th.supervisor
let regs th = th.regs
let set_tdt th table = th.tdt <- Some table
let tdt th = th.tdt
let wakeup_count th = th.wakeups
let start_count th = th.starts
let crash_count th = th.crashes
let armed th = Monitor.armed th.chip.monitor th.mslot

let own_core th = th.chip.cores.(th.core_id)

let pin_state th = State_store.pin (own_core th).store ~ptid:th.t_ptid

(* The one state transition: write the state, put the thread on (or take
   it off) its home core's execution units, emit the probe. *)
let set_state th state ~reason =
  let c = th.chip in
  let from_ = th.state in
  th.state <- state;
  Smt_core.set_runnable_slot (own_core th).exec_unit ~slot:th.smt ~weight:th.weight
    (state = Ptid.Runnable);
  if c.probe_on then
    emit c (Probe.State_change { ptid = th.t_ptid; from_; to_ = state; reason })

(* Waiting -> Disabled (a force- or crash-stop of a parked thread): a
   waiting thread is already off the execution units, so only the state
   machine and probes move. *)
let stop_waiting th ~reason =
  let c = th.chip in
  th.state <- Ptid.Disabled;
  if c.probe_on then
    emit c
      (Probe.State_change
         { ptid = th.t_ptid; from_ = Ptid.Waiting; to_ = Ptid.Disabled; reason })

let run_body th =
  match th.body with
  | None -> invalid_arg "Chip: starting a thread with no body attached"
  | Some body ->
    Sim.spawn ~name:(Printf.sprintf "ptid-%d" th.t_ptid) th.chip.sim (fun () ->
        (match body th with
        | () -> ()
        | exception Crash_stop ->
          (* Crash-stopped: all crash bookkeeping (state change, monitor
             teardown, restart scheduling) ran at the crash site; the
             raise only unwound the dead instruction stream. *)
          ());
        (* Instruction stream ended: the thread parks itself. *)
        if th.state = Ptid.Runnable then set_state th Ptid.Disabled ~reason:"body-end")

(* The body parks at one point, its thread's [suspension]: on its wake
   cell in an mwait, and in [wait_until_runnable].  Invariant: it is
   parked on its cell exactly when the cell is [Open], and then only
   [fill_wake] wakes it; the start-wake and the deadline restart act
   only on a thread whose cell is not [Open]. *)
let wake_body th =
  let w = th.resume in
  if w != Sim.no_waker then begin
    th.resume <- Sim.no_waker;
    Sim.wake w
  end
[@@sl.zero_alloc]

(* Block the calling body until its thread is runnable again.  Loops
   because a start can be followed by another stop before we get going.
   A disabled thread is parked by design (a server awaiting its next
   start), so it is daemon-marked for [Sim.suspects] while it waits. *)
let rec wait_until_runnable th =
  if th.state <> Ptid.Runnable then begin
    let disabled = th.state = Ptid.Disabled in
    if disabled then Sim.set_daemon true;
    Sim.suspend th.suspension;
    if disabled then Sim.set_daemon false;
    wait_until_runnable th
  end

let exec th ?(kind = Smt_core.Useful) cycles =
  wait_until_runnable th;
  Smt_core.execute_slot (own_core th).exec_unit ~slot:th.smt ~kind cycles

(* [exec th ~kind gap] until [ready ()], checking before each gap.
   [ready] reads simulated state that only an event can change, so
   while no event runs it keeps its answer: the gaps that would each
   continue inline ([Smt_core.serve_lone_gaps]) need no check between
   them, and the gap after them, which cannot continue inline, is an
   ordinary [exec].  [kind] is passed on unwrapped, so that no option
   is allocated per gap. *)
let spin th ~kind ~gap ready =
  if gap < 1 then invalid_arg "Chip.spin: gap must be at least 1";
  let core = (own_core th).exec_unit in
  while not (ready ()) do
    Smt_core.serve_lone_gaps core ~slot:th.smt ~kind gap;
    wait_until_runnable th;
    Smt_core.execute_slot core ~slot:th.smt ~kind gap
  done
[@@sl.zero_alloc]

(* --- wakeup machinery -------------------------------------------------- *)

(* Fill the thread's wake cell and wake the parked body (if it already
   registered its waker — it always has, the park round suspends before
   any filler can run).  Only paths that find the cell [Open] fill it,
   so [wval] holds until the body reads it. *)
let fill_wake th v =
  th.cell <- Full;
  th.wval <- v;
  wake_body th
[@@sl.zero_alloc]

(* The wake event scheduled by [monitor_wake], [latency] cycles after the
   triggering write.  [epoch] stamps the park round the waiter belonged
   to; if that round is over (the epoch moved on) or something else
   (force-stop, deadline, crash) already claimed the cell, the event
   must not be lost: latch it for the thread's next mwait. *)
let deliver_wake th epoch addr =
  let c = th.chip in
  match th.cell with
  | Open when th.epoch = epoch ->
    set_state th Ptid.Runnable ~reason:"mwait-wake";
    if c.probe_on then
      emit c (Probe.Mwait_woke { ptid = th.t_ptid; addr; immediate = false });
    fill_wake th addr
  | Idle | Open | Full -> Monitor.relatch c.monitor th.mslot addr

(* The monitor waiter callback, preallocated per thread at [add_thread]:
   runs synchronously inside the triggering Memory.write. *)
let monitor_wake th addr =
  let c = th.chip in
  let scan = Monitor.write_scan_cost c.monitor th.core_id in
  th.wakeups <- th.wakeups + 1;
  let latency =
    c.params.Params.monitor_wake_cycles + scan
    + State_store.wake_transfer_cycles (own_core th).store ~ptid:th.t_ptid
    + c.params.Params.pipeline_start_cycles
  in
  let epoch = th.epoch in
  let at = Sim.time c.sim + latency in
  if not th.pending then begin
    th.pending <- true;
    th.pend_epoch <- epoch;
    th.pend_addr <- addr;
    Sim.schedule c.sim ~at th.deliver
  end
  else
    (* Overlapping deliveries for one thread: each must carry its own
       (epoch, addr), so the second and later ones capture theirs. *)
    Sim.schedule c.sim ~at (fun () -> deliver_wake th epoch addr)

(* Bring a disabled/waiting thread back to runnable after the hardware
   latency: state transfer from its current storage tier plus the pipeline
   restart cost, plus [extra] (e.g. the monitor match cost). *)
let schedule_wakeup th ~extra ~reason ~(on_ready : unit -> unit) =
  let chip = th.chip in
  let core = own_core th in
  let transfer = State_store.wake_transfer_cycles core.store ~ptid:th.t_ptid in
  (* Fault injection: a delayed start hand-off stretches the wakeup. *)
  let fault_extra =
    match chip.faults with
    | None -> 0
    | Some f ->
      let d = f.start_extra_cycles ~ptid:th.t_ptid in
      if d > 0 then
        emit chip (Probe.Fault_injected { ptid = th.t_ptid; kind = "start-delay" });
      d
  in
  let latency =
    extra + fault_extra + transfer + chip.params.Params.pipeline_start_cycles
  in
  Sim.schedule chip.sim
    ~at:(Sim.time chip.sim + latency)
    (fun () ->
      (* A start hand-off delayed past a later one lands on a thread the
         later one already made runnable, which may have parked in mwait
         since: like [do_start], it leaves a [Waiting] thread alone (else
         the next stop would miss the park), but still runs [on_ready] —
         the body spawn, if it was the first start. *)
      if th.state = Ptid.Disabled then begin
        set_state th Ptid.Runnable ~reason;
        wake_body th
      end;
      on_ready ())

(* --- crash-stop + cold restart ------------------------------------------ *)

(* Shared bookkeeping of a crash-stop: the hardware thread dies on the
   spot.  Everything architectural it held is gone — armed monitors, a
   latched pending start, its place in the pipeline — and a cold restart
   [restart_after] cycles later respawns the attached body from scratch
   (so the body itself must re-arm its monitor and re-publish whatever it
   owns, exactly the recovery discipline the protocol rule enforces).
   The caller is responsible for unwinding the instruction stream (raise
   [Crash_stop] from inside the body, or fill the wake cell with
   [wake_crash] for a parked thread). *)
let crash_mark th ~kind ~restart_after =
  let chip = th.chip in
  th.crashes <- th.crashes + 1;
  th.crashed <- true;
  th.pending_start <- false;
  Monitor.cancel_wait chip.monitor th.mslot;
  Monitor.disarm_all chip.monitor th.mslot;
  (match th.state with
  | Ptid.Runnable -> set_state th Ptid.Disabled ~reason:"crash-stop"
  | Ptid.Waiting -> stop_waiting th ~reason:"crash-stop"
  | Ptid.Disabled -> ());
  if chip.probe_on then emit chip (Probe.Fault_injected { ptid = th.t_ptid; kind });
  let restart_at = Sim.time chip.sim + max 1 restart_after in
  Sim.schedule chip.sim ~at:restart_at (fun () ->
      (* A start issued between crash and restart already respawned the
         body (see [do_start]); don't spawn a second instruction stream. *)
      if th.crashed then begin
        th.crashed <- false;
        th.starts <- th.starts + 1;
        emit chip
          (Probe.Start_edge { actor = Probe.Boot; target = th.t_ptid; latched = false });
        schedule_wakeup th ~extra:0 ~reason:"crash-restart" ~on_ready:(fun () ->
            run_body th)
      end)

(* Crash the calling body at its current instruction (the wake boundary):
   bookkeeping, then unwind.  Never returns. *)
let crash_self th ~kind ~restart_after =
  crash_mark th ~kind ~restart_after;
  raise Crash_stop

(* --- thread construction ------------------------------------------------ *)

let add_thread t ~core:core_id ~ptid ~mode ?(vector = false) ?(weight = 1.0) () =
  if core_id < 0 || core_id >= Array.length t.cores then
    invalid_arg "Chip.add_thread: no such core";
  if ptid < 0 then invalid_arg "Chip.add_thread: negative ptid";
  if exists t ptid then invalid_arg "Chip.add_thread: ptid already exists";
  if weight <= 0.0 then invalid_arg "Chip.add_thread: weight must be positive";
  let regs = Regstate.create ~vector () in
  let bytes = Regstate.footprint_bytes t.params regs in
  State_store.register (state_store t core_id) ~ptid ~bytes;
  let mslot = Monitor.register t.monitor ~core_id in
  let smt = Smt_core.slot (exec_core t core_id) ~ptid in
  let rec th =
    {
      chip = t;
      state = Ptid.Disabled;
      epoch = 0;
      cell = Idle;
      wval = 0;
      resume = Sim.no_waker;
      pending = false;
      pend_epoch = 0;
      pend_addr = 0;
      wakeups = 0;
      core_id;
      mslot;
      smt;
      t_ptid = ptid;
      weight;
      wake = (fun addr -> monitor_wake th addr);
      suspension = Sim.no_suspension;
      deliver =
        (fun () ->
          th.pending <- false;
          deliver_wake th th.pend_epoch th.pend_addr);
      starts = 0;
      spawned = false;
      pending_start = false;
      crashed = false;
      supervisor = (match mode with Ptid.Supervisor -> true | Ptid.User -> false);
      crashes = 0;
      regs;
      body = None;
      tdt = None;
      secret = None;
    }
  in
  th.suspension <- Sim.suspension (fun waker -> th.resume <- waker);
  Hashtbl.replace t.tids ptid th;
  t.threads <- th :: t.threads;
  th

(* --- §3.1 instructions -------------------------------------------------- *)

let insn_monitor th addr =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.monitor_arm_cycles;
  Monitor.arm th.chip.monitor th.mslot addr;
  if th.chip.probe_on then
    emit th.chip (Probe.Monitor_armed { ptid = th.t_ptid; addr })

(* Whether park round [epoch] of the thread is still unclaimed: no wake
   in flight (the cell is still open this round) and no force-stop
   (still Waiting).  Top-level, not a local closure: that would be
   allocated on every park. *)
let unclaimed th epoch =
  th.epoch = epoch && th.cell = Open && th.state = Ptid.Waiting

(* Shared implementation of [mwait] (park until a monitored write) and
   [mwait_for] (same, but resume empty-handed at an absolute [deadline],
   umwait-style).  Returns [None] only on deadline expiry. *)
let insn_mwait_generic th ~deadline =
  let chip = th.chip in
  exec th ~kind:Smt_core.Overhead chip.params.Params.monitor_arm_cycles;
  (* Sampled as a wake is consumed, parked or immediate: the thread
     dies holding the event — the doorbell was delivered but nothing
     will process it until the cold restart re-runs the body. *)
  let crash_on_wake () =
    match chip.faults with
    | None -> ()
    | Some f -> (
      match f.crash_at_wake ~ptid:th.t_ptid with
      | None -> ()
      | Some restart_after -> crash_self th ~kind:"crash-wake" ~restart_after)
  in
  let rec park () =
    (* A new park round: bump the epoch (cell back to idle); stale events
       from earlier rounds compare epochs and stand down. *)
    let epoch = th.epoch + 1 in
    th.epoch <- epoch;
    th.cell <- Idle;
    let a = Monitor.mwait chip.monitor th.mslot ~wake:th.wake in
    if a >= 0 then begin
      (* The write already happened; no sleep, only the match cost. *)
      th.wakeups <- th.wakeups + 1;
      exec th ~kind:Smt_core.Overhead chip.params.Params.monitor_wake_cycles;
      if chip.probe_on then
        emit chip (Probe.Mwait_woke { ptid = th.t_ptid; addr = a; immediate = true });
      crash_on_wake ();
      Some a
    end
    else begin
      set_state th Ptid.Waiting ~reason:"mwait-park";
      if chip.probe_on then emit chip (Probe.Mwait_parked { ptid = th.t_ptid });
      State_store.touch (own_core th).store ~ptid:th.t_ptid;
      th.cell <- Open;
      (match deadline with
      | None -> ()
      | Some at ->
        let at =
          let now = Sim.time chip.sim in
          if at < now then now else at
        in
        Sim.schedule chip.sim ~at (fun () ->
            (* Expire only if nothing else claimed the wait. *)
            if unclaimed th epoch then begin
              Monitor.cancel_wait chip.monitor th.mslot;
              fill_wake th wake_deadline;
              (* The empty-handed resume still pays the restart latency. *)
              let latency =
                State_store.wake_transfer_cycles (own_core th).store ~ptid:th.t_ptid
                + chip.params.Params.pipeline_start_cycles
              in
              Sim.schedule chip.sim
                ~at:(Sim.time chip.sim + latency)
                (fun () ->
                  (* A force-stop may land inside the restart window; it
                     wins, and a later start re-runs the thread, which
                     may even have parked again, in a later round. *)
                  if th.state = Ptid.Waiting && th.epoch = epoch then begin
                    set_state th Ptid.Runnable ~reason:"mwait-deadline";
                    if chip.probe_on then
                      emit chip (Probe.Mwait_timeout { ptid = th.t_ptid });
                    wake_body th
                  end)
            end));
      (* Fault injection: a spurious wakeup fires the wake callback with
         no write having happened; the woken code re-checks its predicate
         and re-parks, as real code must. *)
      (match chip.faults with
      | None -> ()
      | Some f -> (
        match f.spurious_wake_after ~ptid:th.t_ptid with
        | None -> ()
        | Some d ->
          Sim.schedule chip.sim
            ~at:(Sim.time chip.sim + d)
            (fun () ->
              match Monitor.take_waiter chip.monitor th.mslot with
              | None -> ()  (* already woken, stopped or expired *)
              | Some w ->
                emit chip
                  (Probe.Fault_injected { ptid = th.t_ptid; kind = "mwait-spurious" });
                let addr =
                  match Monitor.armed chip.monitor th.mslot with
                  | addr :: _ -> addr
                  | [] -> 0
                in
                w addr)));
      (* Fault injection: a crash-stop lands mid-park.  The scheduled
         event claims the wait only if nothing else already did (no wake
         in flight, no force-stop, no deadline); the filled cell unwinds
         the parked body, which run_body retires, and [crash_mark] has
         already scheduled the cold restart. *)
      (match chip.faults with
      | None -> ()
      | Some f -> (
        match f.crash_park_after ~ptid:th.t_ptid with
        | None -> ()
        | Some (after, restart_after) ->
          Sim.schedule chip.sim
            ~at:(Sim.time chip.sim + max 0 after)
            (fun () ->
              if unclaimed th epoch then begin
                crash_mark th ~kind:"crash-park" ~restart_after;
                fill_wake th wake_crash
              end)));
      (* Park on the cell just opened, which only [fill_wake] fills. *)
      Sim.suspend th.suspension;
      let v = th.wval in
      th.cell <- Idle;
      if v >= 0 then begin
        crash_on_wake ();
        Some v
      end
      else if v = wake_deadline then begin
        wait_until_runnable th;
        None
      end
      else if v = wake_stop then begin
        (* Force-stopped while waiting; when restarted, wait again. *)
        wait_until_runnable th;
        park ()
      end
      else begin
        (* Crash-stopped while parked: bookkeeping already ran in the
           crash event; unwind the dead instruction stream. *)
        raise Crash_stop
      end
    end
  in
  park ()

let insn_mwait th =
  match insn_mwait_generic th ~deadline:None with
  | Some addr -> addr
  | None -> assert false (* no deadline, so no Deadline outcome *)

let insn_mwait_for th ~deadline = insn_mwait_generic th ~deadline:(Some deadline)

(* Fault the calling thread through its exception-descriptor pointer. *)
let raise_exception th kind ~info =
  let chip = th.chip in
  chip.exn_count <- chip.exn_count + 1;
  emit chip (Probe.Exception_raised { ptid = th.t_ptid; kind; info });
  let edp = Regstate.get (regs th) Regstate.Exception_descriptor_ptr in
  if edp = 0L then begin
    let reason =
      Format.asprintf "unhandled %a exception in ptid %d (no handler chain left)"
        Exception_desc.pp_kind kind th.t_ptid
    in
    chip.halted_reason <- Some reason;
    raise (Halted reason)
  end
  else begin
    (* Faults are involuntary: a latched start must not absorb them. *)
    th.pending_start <- false;
    set_state th Ptid.Disabled ~reason:"fault";
    Sim.delay chip.params.Params.exception_descriptor_cycles;
    chip.exn_seq <- Int64.add chip.exn_seq 1L;
    Exception_desc.write chip.memory ~base:(Int64.to_int edp) ~seq:chip.exn_seq
      ~core_id:(home_core th) ~ptid:th.t_ptid kind ~info;
    (* Parked until a handler repairs our state and restarts us. *)
    wait_until_runnable th
  end

(* --- §3.1 inter-thread instructions ---------------------------------------

   Each is written once over a target resolver, [translate] (a vtid
   through the caller's TDT) or [translate_keyed] (a raw ptid plus the
   target's secret key).  The resolver charges its lookup after the
   instruction's issue cost and returns the target with the caller's
   permissions on it, or faults the caller; the operand (vtid or target
   ptid) is the [info] of every fault the instruction raises. *)

let translate th vtid =
  let chip = th.chip in
  match th.tdt with
  | Some table -> (
    let r = Tdt.Cache.lookup_packed (own_core th).cache table ~vtid in
    let e = r asr 1 in
    let hit = r land 1 = 1 in
    if chip.probe_on then begin
      let used =
        if e < 0 then None
        else Some (e lsr 4, Tdt.perms_of_bits (e land 0b1111))
      in
      emit chip
        (Probe.Translated
           {
             actor = th.t_ptid;
             vtid;
             table;
             used;
             outcome = (if hit then `Hit else `Miss);
           })
    end;
    let cost =
      if hit then chip.params.Params.tdt_cached_lookup_cycles
      else chip.params.Params.tdt_miss_cycles
    in
    exec th ~kind:Smt_core.Overhead cost;
    if e >= 0 then begin
      match handle_of chip (e lsr 4) with
      | Some target -> Some (target, Tdt.perms_of_bits (e land 0b1111))
      | None ->
        raise_exception th Exception_desc.Invalid_thread_access
          ~info:(Int64.of_int vtid);
        None
    end
    else begin
      raise_exception th Exception_desc.Invalid_thread_access
        ~info:(Int64.of_int vtid);
      None
    end)
  | None ->
    if is_supervisor th then begin
      (* Supervisors without a table address ptids directly. *)
      match handle_of chip vtid with
      | Some target -> Some (target, Tdt.perms_all)
      | None ->
        raise_exception th Exception_desc.Invalid_thread_access
          ~info:(Int64.of_int vtid);
        None
    end
    else begin
      raise_exception th Exception_desc.Permission_denied ~info:(Int64.of_int vtid);
      None
    end

(* §3.2 secret-key capability scheme: the caller must present the
   target's published secret (supervisors pass regardless), and the key
   grants everything, as a supervisor's direct addressing does. *)
let translate_keyed ~key th target_ptid =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.tdt_cached_lookup_cycles;
  match handle_of th.chip target_ptid with
  | Some target
    when is_supervisor th || Option.fold ~none:false ~some:(Int64.equal key) target.secret
    ->
    Some (target, Tdt.perms_all)
  | Some _ ->
    raise_exception th Exception_desc.Permission_denied ~info:(Int64.of_int target_ptid);
    None
  | None ->
    raise_exception th Exception_desc.Invalid_thread_access
      ~info:(Int64.of_int target_ptid);
    None

let permitted th perms check = is_supervisor th || check perms

let do_start ~actor target =
  let c = target.chip in
  match target.state with
  | Ptid.Disabled ->
    target.starts <- target.starts + 1;
    emit c (Probe.Start_edge { actor; target = target.t_ptid; latched = false });
    (* The first start spawns the body.  So does a start of a
       crash-stopped thread not yet auto-restarted: the old instruction
       stream is gone, and the scheduled auto-restart then sees
       [crashed = false] and stands down. *)
    let respawn = (not target.spawned) || target.crashed in
    target.spawned <- true;
    target.crashed <- false;
    schedule_wakeup target ~extra:0 ~reason:"start-wake"
      ~on_ready:(if respawn then fun () -> run_body target else fun () -> ())
  | Ptid.Runnable ->
    (* Already enabled: latch the start so it cannot be lost to a stop
       that is architecturally in flight (e.g. a server parking itself). *)
    target.pending_start <- true;
    emit c (Probe.Start_edge { actor; target = target.t_ptid; latched = true })
  | Ptid.Waiting -> ()

let do_stop ~actor target =
  let c = target.chip in
  if target.pending_start then
    (* The latched start absorbs this stop; the thread keeps running. *)
    target.pending_start <- false
  else
    match target.state with
    | Ptid.Runnable ->
      set_state target Ptid.Disabled ~reason:"stop";
      emit c (Probe.Stop_edge { actor; target = target.t_ptid })
    | Ptid.Waiting ->
      Monitor.cancel_wait c.monitor target.mslot;
      stop_waiting target ~reason:"force-stop";
      emit c (Probe.Stop_edge { actor; target = target.t_ptid });
      (* Claim the open park: a deadline expiry may have claimed the
         cell already (thread mid-restart); the force-stop still wins
         via the state check in the restart event. *)
      if target.cell = Open then fill_wake target wake_stop
    | Ptid.Disabled -> ()

let start_via resolve th operand =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.start_stop_issue_cycles;
  match resolve th operand with
  | None -> ()
  | Some (target, perms) ->
    if permitted th perms (fun p -> p.Tdt.can_start) then
      do_start ~actor:(Probe.Thread th.t_ptid) target
    else raise_exception th Exception_desc.Permission_denied ~info:(Int64.of_int operand)

let stop_via resolve th operand =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.start_stop_issue_cycles;
  match resolve th operand with
  | None -> ()
  | Some (target, perms) ->
    if permitted th perms (fun p -> p.Tdt.can_stop) then
      do_stop ~actor:(Probe.Thread th.t_ptid) target
    else raise_exception th Exception_desc.Permission_denied ~info:(Int64.of_int operand)

(* Permission for remote register access.  Reading needs any modify bit;
   writing needs the bit matching the register class; privileged control
   registers always need a supervisor caller. *)
let reg_readable perms = perms.Tdt.can_modify_some || perms.Tdt.can_modify_most

let reg_writable th perms reg =
  if Regstate.is_privileged_reg reg then is_supervisor th
  else if Regstate.modify_some_allows reg then
    perms.Tdt.can_modify_some || perms.Tdt.can_modify_most
  else Regstate.modify_most_allows reg && perms.Tdt.can_modify_most

let rpull_via resolve th operand reg =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.rpull_rpush_cycles;
  match resolve th operand with
  | None -> 0L
  | Some (target, perms) ->
    if not (permitted th perms reg_readable) then begin
      raise_exception th Exception_desc.Permission_denied ~info:(Int64.of_int operand);
      0L
    end
    else if target.state <> Ptid.Disabled then begin
      raise_exception th Exception_desc.Invalid_thread_access
        ~info:(Int64.of_int operand);
      0L
    end
    else begin
      emit th.chip (Probe.Reg_pull { actor = th.t_ptid; target = target.t_ptid; reg });
      Regstate.get target.regs reg
    end

let rpush_via resolve th operand reg value =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.rpull_rpush_cycles;
  match resolve th operand with
  | None -> ()
  | Some (target, perms) ->
    if Regstate.is_privileged_reg reg && not (is_supervisor th) then
      (* §3.2: privileged-register access from user mode always faults so a
         supervisor can emulate it. *)
      raise_exception th Exception_desc.Privileged_instruction
        ~info:(Int64.of_int operand)
    else if not (is_supervisor th || reg_writable th perms reg) then
      raise_exception th Exception_desc.Permission_denied ~info:(Int64.of_int operand)
    else if target.state <> Ptid.Disabled then
      raise_exception th Exception_desc.Invalid_thread_access
        ~info:(Int64.of_int operand)
    else begin
      emit th.chip (Probe.Reg_push { actor = th.t_ptid; target = target.t_ptid; reg });
      Regstate.set target.regs reg value
    end

let insn_start th ~vtid = start_via translate th vtid
let insn_stop th ~vtid = stop_via translate th vtid
let insn_rpull th ~vtid reg = rpull_via translate th vtid reg
let insn_rpush th ~vtid reg value = rpush_via translate th vtid reg value

let insn_start_keyed th ~target_ptid ~key =
  start_via (translate_keyed ~key) th target_ptid

let insn_stop_keyed th ~target_ptid ~key = stop_via (translate_keyed ~key) th target_ptid

let insn_rpull_keyed th ~target_ptid ~key reg =
  rpull_via (translate_keyed ~key) th target_ptid reg

let insn_rpush_keyed th ~target_ptid ~key reg value =
  rpush_via (translate_keyed ~key) th target_ptid reg value

let insn_set_secret th key =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.start_stop_issue_cycles;
  th.secret <- Some key

let insn_invtid th ~vtid =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.tdt_cached_lookup_cycles;
  match th.tdt with
  | Some table ->
    Tdt.Cache.invalidate (own_core th).cache table ~vtid;
    if th.chip.probe_on then
      emit th.chip (Probe.Invtid_issued { actor = th.t_ptid; vtid })
  | None -> ()

let insn_set_tdt th table =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.start_stop_issue_cycles;
  if is_supervisor th then th.tdt <- Some table
  else raise_exception th Exception_desc.Privileged_instruction ~info:0L

let load th addr =
  exec th ~kind:Smt_core.Useful 1;
  let value = Memory.read th.chip.memory addr in
  if th.chip.probe_on then
    emit th.chip (Probe.Mem_read { ptid = th.t_ptid; addr; value });
  value

let store th addr value =
  exec th ~kind:Smt_core.Useful 1;
  Memory.write th.chip.memory addr value;
  if th.chip.probe_on then
    emit th.chip (Probe.Mem_write { ptid = th.t_ptid; addr; value })

let boot th =
  let c = th.chip in
  if th.spawned then invalid_arg "Chip.boot: thread already started";
  th.spawned <- true;
  th.starts <- th.starts + 1;
  emit c (Probe.Start_edge { actor = Probe.Boot; target = th.t_ptid; latched = false });
  set_state th Ptid.Runnable ~reason:"boot";
  run_body th

let shutdown th = do_stop ~actor:Probe.Boot th

(* --- statistics --------------------------------------------------------- *)

type stats = {
  total_wakeups : int;
  total_starts : int;
  total_exceptions : int;
  rf_wakes : int;
  l2_wakes : int;
  l3_wakes : int;
  dram_wakes : int;
  demotions : int;
}

let sum_threads t f = List.fold_left (fun acc th -> acc + f th) 0 t.threads

let crash_total t = sum_threads t (fun th -> th.crashes)

let stats t =
  let tier_sum tier =
    Array.fold_left
      (fun acc core -> acc + State_store.transfer_count core.store tier)
      0 t.cores
  in
  {
    total_wakeups = sum_threads t (fun th -> th.wakeups);
    total_starts = sum_threads t (fun th -> th.starts);
    total_exceptions = t.exn_count;
    rf_wakes = tier_sum State_store.Register_file;
    l2_wakes = tier_sum State_store.L2;
    l3_wakes = tier_sum State_store.L3;
    dram_wakes = tier_sum State_store.Dram;
    demotions =
      Array.fold_left (fun acc core -> acc + State_store.demotion_count core.store) 0 t.cores;
  }
