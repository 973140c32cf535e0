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

   The [ptids] table maps ptid -> Monitor slot, and [by_mslot] the slot
   to the thread, on the cold paths (construction, TDT translation,
   [thread_list], the sums in [stats]); everything per-event goes
   through the handle.  It is the chip's one ptid table, a direct-mapped
   window over the ptids in use ([Sl_util.Dense]), so a lookup hashes
   nothing and the table walks in ptid order; the window spans the
   lowest to the highest ptid, so a chip that mixes small ptids with a
   sparse sentinel (9_000) pays one int per ptid in between, once.
   Below it, each unit names the thread by the handle it handed out,
   which the thread record keeps (its State_store entry, its Smt_core
   and Monitor slots).  Externally visible identifiers — probe events,
   exception descriptors, billing labels, fault hooks — always carry
   the real ptid. *)
type t = {
  sim : Sim.t;
  params : Params.t;
  memory : Memory.t;
  monitor : Monitor.t;
  cores : core array;
  ptids : Sl_util.Dense.t;  (* ptid -> Monitor slot, -1 when unused *)
  mutable halted_reason : string option;
  mutable exn_seq : int64;
  mutable exn_count : int;
  mutable probe : (Probe.event -> unit) option;
  mutable probe_on : bool;
      (* Guards probe-event construction at emit sites: with no probe
         installed (the perf configuration) not even the event record is
         allocated. *)
  mutable faults : fault_hooks option;
  mutable parking : int;  (* Monitor slot of the thread suspending on [park] *)
  mutable park : Sim.suspension;  (* every body's one park point, see [park_point] *)
  mutable by_mslot : thread array;  (* Monitor slot -> thread *)
  mutable deliver : unit -> unit;  (* wake-delivery event, tagged with a Monitor slot *)
}

(* One hardware thread, allocated once at [add_thread] and shared by
   every [find_thread]/[thread_list].  The wake path's fields come
   first.  It holds no closure: a monitored write reaches it through
   the chip's one Monitor waiter, which finds it by its Monitor slot.

   In-flight wake delivery: the scheduled event is the chip's one
   [deliver], tagged with the thread's Monitor slot, which reads its
   (epoch, addr) from [pend_epoch]/[pend_addr] ([pend_epoch] is
   [no_delivery] while none is scheduled), so the steady-state wake
   path schedules without allocating.  At most one delivery per
   thread is normally in flight (the write that fires it unparks the
   Monitor slot, and only the next mwait, which runs after the
   delivery, parks it again); the rare overlap — force-stop + restart + re-park +
   second wake inside the first delivery's latency window — falls back
   to a capturing closure (see [monitor_wake]). *)
and thread = {
  chip : t;
  mutable state : Ptid.state;
  mutable epoch : int;  (* park rounds so far *)
  mutable cell : cell;
  mutable wval : int;  (* wake value (addr >= 0 or a wake_* code) *)
  mutable resume : Sim.waker;  (* the parked body's waker *)
  mutable op : int;  (* the instruction waiting, see "Instruction waits" *)
  mutable op_arg : int;  (* its cycles, monitored address or deadline *)
  mutable pend_epoch : int;  (* the chip's [deliver] scheduled for it, or [no_delivery] *)
  mutable pend_addr : Memory.addr;
  mutable wakeups : int;
  core_id : int;  (* home core *)
  mslot : int;  (* Monitor slot *)
  smt : int;  (* Smt_core slot on the home core *)
  entry : State_store.entry;  (* context on the home core's store *)
  t_ptid : int;
  weight : float;
  mutable starts : int;
  mutable flags : int;  (* [f_spawned], [f_pending_start], [f_crashed], [f_supervisor] *)
  mutable crashes : int;
  regs : Regstate.t;
  mutable body : (thread -> unit) option;
  mutable tdt : Tdt.t option;
  mutable secret : int64 option;
  mutable spinner : spinner option;  (* from its first [spin] on *)
}

(* A thread's polling loop ({!spin}): its predicate, kind and gap, and
   its one step, built at the thread's first spin. *)
and spinner = {
  mutable ready : unit -> bool;
  mutable skind : Smt_core.kind;
  mutable gap : int;
  mutable next : unit -> Sim.suspension;
}

(* [thread.pend_epoch] while no wake delivery is scheduled for it. *)
let no_delivery = -1

(* [thread.flags], one bit each. *)
let f_spawned = 1  (* body spawned at least once *)
let f_pending_start = 2  (* latched start, absorbs the next stop *)
let f_crashed = 4  (* crash-stopped, cold restart not yet run *)
let f_supervisor = 8

let has th f = th.flags land f <> 0
let set th f = th.flags <- th.flags lor f
let clear th f = th.flags <- th.flags land lnot f

(* [thread.op] packs the wait of an instruction in flight (see
   "Instruction waits"): what the thread waits for, in its low three
   bits, ... *)
let wait_none = 0  (* no instruction waits *)
let wait_runnable = 1  (* parked until the thread is runnable *)
let wait_disabled = 2  (* the same, daemon-marked: the thread was disabled *)
let wait_job = 3  (* its exec's job is in flight on the home core *)
let wait_cell = 4  (* parked on its wake cell in an mwait round *)
let wait_mask = 7

(* ... what follows the wait, in the next three ... *)
let then_done = 0  (* the instruction is over; a plain exec is [op_arg] cycles *)
let then_arm = 8  (* arm [op_arg], after the arm's cycles *)
let then_round = 16  (* a park round, after the arm's cycles *)
let then_reround = 24  (* a park round, at once: the thread was force-stopped *)
let then_woke = 32  (* a latched wake of [wval], after the match cycles *)
let then_mask = 56

(* ... the kind of the exec it admits once runnable, and whether a
   round has a deadline, [op_arg]. *)
let kind_poll = 64
let kind_overhead = 128
let kind_mask = 192
let timed = 256

(* Raised inside a crash-stopped thread's body to unwind its instruction
   stream; caught in [run_body], never escapes the chip. *)
exception Crash_stop

type Sim.component += Chip of t

(* Kept for perfbench/obs.ml until it observes [Chip] itself. *)
let add_creation_hook ~key f = Sim.observe ~key (function Chip t -> f t | _ -> ())
let remove_creation_hook ~key = Sim.unobserve ~key

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

let max_ptid = 1 lsl 20

(* The Monitor slot of [ptid]'s thread, or [-1] when no thread has it
   (a negative ptid included). *)
let mslot_of t ptid = Sl_util.Dense.get t.ptids ptid

let fold_threads f t init =
  Sl_util.Dense.fold (fun _ mslot acc -> f t.by_mslot.(mslot) acc) t.ptids init

let thread_list t = fold_threads List.cons t []

let find_thread t ~ptid =
  let mslot = mslot_of t ptid in
  if mslot < 0 then invalid_arg "Chip.find_thread: unknown ptid" else t.by_mslot.(mslot)

let attach th body =
  match th.body with
  | Some _ -> invalid_arg "Chip.attach: body already attached"
  | None -> th.body <- Some body

let ptid th = th.t_ptid
let home_core th = th.core_id
let state th = th.state
let is_supervisor th = has th f_supervisor
let mode th = if is_supervisor th then Ptid.Supervisor else Ptid.User
let regs th = th.regs
let set_tdt th table = th.tdt <- Some table
let tdt th = th.tdt
let wakeup_count th = th.wakeups
let start_count th = th.starts
let crash_count th = th.crashes
let armed th = Monitor.armed th.chip.monitor th.mslot
let store_entry th = th.entry
let smt_slot th = th.smt

let own_core th = th.chip.cores.(th.core_id)

let pin_state th = State_store.pin (own_core th).store th.entry

(* The one state transition: write the state, put the thread on (or take
   it off) its home core's execution units, emit the probe. *)
let set_state th state ~reason =
  let c = th.chip in
  let from_ = th.state in
  th.state <- state;
  Smt_core.set_runnable (own_core th).exec_unit ~slot:th.smt ~weight:th.weight
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
    Sim.spawn_thread th.chip.sim ~ptid:th.t_ptid (fun () ->
        (match body th with
        | () -> ()
        | exception Crash_stop ->
          (* Crash-stopped: all crash bookkeeping (state change, monitor
             teardown, restart scheduling) ran at the crash site; the
             raise only unwound the dead instruction stream. *)
          ());
        (* Instruction stream ended: the thread parks itself. *)
        if th.state = Ptid.Runnable then set_state th Ptid.Disabled ~reason:"body-end")

(* The body parks at one point, its chip's [park], which keeps the
   waker in the thread whose Monitor slot [parking] holds: on its wake
   cell in an mwait, and while it waits until it is runnable.  This is
   where the thread blocks next.  Invariant: it is parked on its cell
   exactly when the cell is [Open], and then only [fill_wake] wakes it;
   the start-wake and the deadline restart act only on a thread whose
   cell is not [Open]. *)
let park_point th =
  let c = th.chip in
  c.parking <- th.mslot;
  c.park
[@@sl.zero_alloc]

let wake_body th =
  let w = th.resume and none = Sim.no_waker th.chip.sim in
  if w != none then begin
    th.resume <- none;
    Sim.wake w
  end
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

(* A monitored write woke the parked thread: the chip's Monitor waiter
   calls this synchronously inside the triggering Memory.write. *)
let monitor_wake th addr =
  let c = th.chip in
  let scan = Monitor.write_scan_cost c.monitor th.core_id in
  th.wakeups <- th.wakeups + 1;
  let latency =
    c.params.Params.monitor_wake_cycles + scan
    + State_store.wake_transfer_cycles (own_core th).store th.entry
    + c.params.Params.pipeline_start_cycles
  in
  let epoch = th.epoch in
  let at = Sim.time c.sim + latency in
  if th.pend_epoch = no_delivery then begin
    th.pend_epoch <- epoch;
    th.pend_addr <- addr;
    Sim.schedule_tagged c.sim ~at ~tag:th.mslot c.deliver
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
  let transfer = State_store.wake_transfer_cycles core.store th.entry in
  (* Fault injection: a delayed start hand-off stretches the wakeup. *)
  let fault_extra =
    match chip.faults with
    | None -> 0
    | Some f ->
      let d = f.start_extra_cycles ~ptid:th.t_ptid in
      if d > 0 && chip.probe_on then
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
  set th f_crashed;
  clear th f_pending_start;
  Monitor.cancel_wait chip.monitor th.mslot;
  Monitor.disarm_all chip.monitor th.mslot;
  (match th.state with
  | Ptid.Runnable -> set_state th Ptid.Disabled ~reason:"crash-stop"
  | Ptid.Waiting -> stop_waiting th ~reason:"crash-stop"
  | Ptid.Disabled -> ());
  if chip.probe_on then emit chip (Probe.Fault_injected { ptid = th.t_ptid; kind });
  let restart_at = Sim.time chip.sim + Int.max 1 restart_after in
  Sim.schedule chip.sim ~at:restart_at (fun () ->
      (* A start issued between crash and restart already respawned the
         body (see [do_start]); don't spawn a second instruction stream. *)
      if has th f_crashed then begin
        clear th f_crashed;
        th.starts <- th.starts + 1;
        if chip.probe_on then
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

(* --- construction --------------------------------------------------------- *)

let create sim params ~cores =
  if cores <= 0 then invalid_arg "Chip.create: need at least one core";
  let memory = Memory.create () in
  let monitor = Monitor.create params in
  Monitor.attach monitor memory;
  let cores =
    Array.init cores (fun core_id ->
        {
          exec_unit = Smt_core.create sim params ~core_id;
          store = State_store.create params;
          cache = Tdt.Cache.create ();
        })
  in
  let t =
    {
      sim;
      params;
      memory;
      monitor;
      cores;
      ptids = Sl_util.Dense.create ();
      halted_reason = None;
      exn_seq = 0L;
      exn_count = 0;
      probe = None;
      probe_on = false;
      faults = None;
      parking = -1;
      park = Sim.no_suspension;
      by_mslot = [||];
      deliver = ignore;
    }
  in
  (* The chip's three callbacks close over the chip, so they are set
     once it exists: a [let rec] would build the record twice. *)
  t.park <- Sim.suspension (fun waker -> t.by_mslot.(t.parking).resume <- waker);
  t.deliver <-
    (fun () ->
      let th = t.by_mslot.(Sim.event_tag t.sim) in
      let epoch = th.pend_epoch in
      th.pend_epoch <- no_delivery;
      deliver_wake th epoch th.pend_addr);
  Monitor.set_waiter monitor (fun mslot addr -> monitor_wake t.by_mslot.(mslot) addr);
  Sim.announce (Chip t);
  t

let add_thread t ~core:core_id ~ptid ~mode ?(vector = false) ?(weight = 1.0) () =
  if core_id < 0 || core_id >= Array.length t.cores then
    invalid_arg "Chip.add_thread: no such core";
  if ptid < 0 then invalid_arg "Chip.add_thread: negative ptid";
  if ptid > max_ptid then invalid_arg "Chip.add_thread: ptid above max_ptid";
  if mslot_of t ptid >= 0 then invalid_arg "Chip.add_thread: ptid already exists";
  if weight <= 0.0 then invalid_arg "Chip.add_thread: weight must be positive";
  let regs = Regstate.create ~vector () in
  let bytes = Regstate.footprint_bytes t.params regs in
  let entry = State_store.register (state_store t core_id) ~ptid ~bytes in
  let mslot = Monitor.register t.monitor ~core_id in
  let smt = Smt_core.add_slot (exec_core t core_id) ~ptid in
  let th =
    {
      chip = t;
      state = Ptid.Disabled;
      epoch = 0;
      cell = Idle;
      wval = 0;
      resume = Sim.no_waker t.sim;
      op = wait_none;
      op_arg = 0;
      pend_epoch = no_delivery;
      pend_addr = 0;
      wakeups = 0;
      core_id;
      mslot;
      smt;
      entry;
      t_ptid = ptid;
      weight;
      starts = 0;
      flags = (match mode with Ptid.Supervisor -> f_supervisor | Ptid.User -> 0);
      crashes = 0;
      regs;
      body = None;
      tdt = None;
      secret = None;
      spinner = None;
    }
  in
  (* Monitor slots are dense, bar any a caller registers on the chip's
     monitor table itself (E9's filler arms): their entries here are
     never read. *)
  let n = Array.length t.by_mslot in
  if mslot >= n then begin
    let a = Array.make (Int.max (mslot + 1) (Int.max 8 (2 * n))) th in
    Array.blit t.by_mslot 0 a 0 n;
    t.by_mslot <- a
  end;
  t.by_mslot.(mslot) <- th;
  Sl_util.Dense.set t.ptids ptid mslot;
  th

(* --- §3.1 instructions -------------------------------------------------- *)

(* Whether park round [epoch] of the thread is still unclaimed: no wake
   in flight (the cell is still open this round) and no force-stop
   (still Waiting).  Top-level, not a local closure: that would be
   allocated on every park. *)
let unclaimed th epoch =
  th.epoch = epoch && th.cell = Open && th.state = Ptid.Waiting

(* Sampled as a wake is consumed, parked or immediate: the thread dies
   holding the event — the doorbell was delivered but nothing will
   process it until the cold restart re-runs the body. *)
let crash_on_wake th =
  match th.chip.faults with
  | None -> ()
  | Some f -> (
    match f.crash_at_wake ~ptid:th.t_ptid with
    | None -> ()
    | Some restart_after -> crash_self th ~kind:"crash-wake" ~restart_after)

(* [mwait_for]'s expiry at [at], in park round [epoch]. *)
let schedule_deadline th epoch at =
  let chip = th.chip in
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
          State_store.wake_transfer_cycles (own_core th).store th.entry
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
              if chip.probe_on then emit chip (Probe.Mwait_timeout { ptid = th.t_ptid });
              wake_body th
            end)
      end)

(* The park-time fault samples of round [epoch]. *)
let inject_park_faults th f epoch =
  let chip = th.chip in
  (* A spurious wakeup fires the wake callback with no write having
     happened; the woken code re-checks its predicate and re-parks, as
     real code must. *)
  (match f.spurious_wake_after ~ptid:th.t_ptid with
  | None -> ()
  | Some d ->
    Sim.schedule chip.sim
      ~at:(Sim.time chip.sim + d)
      (fun () ->
        (* Not parked any more: already woken, stopped or expired. *)
        if Monitor.take_waiter chip.monitor th.mslot then begin
          if chip.probe_on then
            emit chip (Probe.Fault_injected { ptid = th.t_ptid; kind = "mwait-spurious" });
          let addr =
            match Monitor.armed chip.monitor th.mslot with addr :: _ -> addr | [] -> 0
          in
          monitor_wake th addr
        end));
  (* A crash-stop lands mid-park.  The scheduled event claims the wait
     only if nothing else already did (no wake in flight, no
     force-stop, no deadline); the filled cell unwinds the parked body,
     which run_body retires, and [crash_mark] has already scheduled the
     cold restart. *)
  match f.crash_park_after ~ptid:th.t_ptid with
  | None -> ()
  | Some (after, restart_after) ->
    Sim.schedule chip.sim
      ~at:(Sim.time chip.sim + Int.max 0 after)
      (fun () ->
        if unclaimed th epoch then begin
          crash_mark th ~kind:"crash-park" ~restart_after;
          fill_wake th wake_crash
        end)

(* --- Instruction waits ---------------------------------------------------

   An instruction that blocks (an exec, a monitor arm, an mwait round)
   runs as a small machine whose state is its thread's [op] and
   [op_arg].  [exec_op], [monitor_op] and [mwait_op] start one and
   return [Sim.finished] when it is over, else the suspension at which
   the thread blocks next; after each wake, [resume_op] goes on from
   there.  A body's fiber drives the machine through [complete],
   suspending at each block; a stepped wait ([Sim.wait]) drives it from
   its steps, which block without resuming the fiber.  Either way it is
   the same code at the same instants, so the pushes, the ticks and
   their order are the same. *)

let kind_bits = function
  | Smt_core.Useful -> 0
  | Smt_core.Poll -> kind_poll
  | Smt_core.Overhead -> kind_overhead

let plan_kind plan =
  let k = plan land kind_mask in
  if k = 0 then Smt_core.Useful else if k = kind_poll then Smt_core.Poll else Smt_core.Overhead

(* The cycles of the exec a thread that waits until runnable then
   admits, before [plan]'s follow-up. *)
let plan_cycles th plan =
  let next = plan land then_mask and p = th.chip.params in
  if next = then_done then th.op_arg
  else if next = then_arm || next = then_round then p.Params.monitor_arm_cycles
  else if next = then_woke then p.Params.monitor_wake_cycles
  else 0

(* Wait until the thread is runnable (a start can be followed by
   another stop before the body gets going), then admit [cycles] of
   [kind], then [plan]'s follow-up.  A disabled thread is parked by
   design (a server awaiting its next start), so it is daemon-marked
   for [Sim.suspects] while it waits. *)
let rec runnable th plan ~kind cycles =
  if th.state = Ptid.Runnable then admit th plan ~kind cycles
  else begin
    let disabled = th.state = Ptid.Disabled in
    if disabled then Sim.set_daemon true;
    if plan land then_mask = then_done then th.op_arg <- cycles;
    th.op <- plan lor kind_bits kind lor if disabled then wait_disabled else wait_runnable;
    park_point th
  end

and admit th plan ~kind cycles =
  let s = Smt_core.admit (own_core th).exec_unit ~slot:th.smt ~kind cycles in
  if s == Sim.finished then follow th plan
  else begin
    th.op <- plan lor wait_job;
    s
  end

and follow th plan =
  th.op <- wait_none;
  let next = plan land then_mask in
  if next = then_done then Sim.finished
  else if next = then_arm then begin
    let addr = th.op_arg in
    Monitor.arm th.chip.monitor th.mslot addr;
    if th.chip.probe_on then emit th.chip (Probe.Monitor_armed { ptid = th.t_ptid; addr });
    Sim.finished
  end
  else if next = then_woke then begin
    if th.chip.probe_on then
      emit th.chip (Probe.Mwait_woke { ptid = th.t_ptid; addr = th.wval; immediate = true });
    crash_on_wake th;
    Sim.finished
  end
  else round th (plan land timed)

(* One park round of [mwait] (park until a monitored write) and of
   [mwait_for] ([timed]: the same, but resume empty-handed at the
   absolute deadline [op_arg], umwait-style).  Its outcome is [wval]:
   the woken address ([>= 0]), or [wake_deadline] on expiry. *)
and round th timed =
  let chip = th.chip in
  (* A new park round: bump the epoch (cell back to idle); stale events
     from earlier rounds compare epochs and stand down. *)
  let epoch = th.epoch + 1 in
  th.epoch <- epoch;
  th.cell <- Idle;
  let a = Monitor.mwait chip.monitor th.mslot in
  if a >= 0 then begin
    (* The write already happened; no sleep, only the match cost. *)
    th.wakeups <- th.wakeups + 1;
    th.wval <- a;
    runnable th then_woke ~kind:Smt_core.Overhead chip.params.Params.monitor_wake_cycles
  end
  else begin
    set_state th Ptid.Waiting ~reason:"mwait-park";
    if chip.probe_on then emit chip (Probe.Mwait_parked { ptid = th.t_ptid });
    State_store.touch (own_core th).store th.entry;
    th.cell <- Open;
    if timed <> 0 then schedule_deadline th epoch th.op_arg;
    (match chip.faults with None -> () | Some f -> inject_park_faults th f epoch);
    (* Park on the cell just opened, which only [fill_wake] fills. *)
    th.op <- timed lor wait_cell;
    park_point th
  end

(* Back from the wake cell. *)
and woken th plan =
  let v = th.wval in
  th.cell <- Idle;
  if v >= 0 then begin
    th.op <- wait_none;
    crash_on_wake th;
    Sim.finished
  end
  else if v = wake_deadline then
    (* Over once runnable: an exec of no cycles. *)
    runnable th then_done ~kind:Smt_core.Useful 0
  else if v = wake_stop then
    (* Force-stopped while waiting; when restarted, wait again. *)
    runnable th (then_reround lor (plan land timed)) ~kind:Smt_core.Useful 0
  else begin
    (* Crash-stopped while parked: bookkeeping already ran in the crash
       event; unwind the dead instruction stream. *)
    th.op <- wait_none;
    raise Crash_stop
  end

let resume_op th =
  let op = th.op in
  let wait = op land wait_mask and plan = op land lnot wait_mask in
  if wait = wait_none then Sim.finished
  else if wait = wait_job then follow th plan
  else if wait = wait_cell then woken th plan
  else begin
    if wait = wait_disabled then Sim.set_daemon false;
    runnable th plan ~kind:(plan_kind plan) (plan_cycles th plan)
  end
[@@sl.zero_alloc]

let exec_op th ~kind cycles = runnable th then_done ~kind cycles [@@sl.zero_alloc]

let monitor_op th addr =
  th.op_arg <- addr;
  runnable th then_arm ~kind:Smt_core.Overhead th.chip.params.Params.monitor_arm_cycles

let mwait_op th ~timed:t ~deadline =
  th.op_arg <- deadline;
  runnable th
    (then_round lor if t then timed else 0)
    ~kind:Smt_core.Overhead th.chip.params.Params.monitor_arm_cycles

let mwait_result th = th.wval

(* A body's fiber runs an instruction's waits by suspending at each. *)
let rec complete th s =
  if s != Sim.finished then begin
    Sim.suspend s;
    complete th (resume_op th)
  end

(* A runnable thread's exec is the core's own execute, admission and
   wait, with no instruction state to keep. *)
let exec th ?(kind = Smt_core.Useful) cycles =
  if th.state = Ptid.Runnable then
    Smt_core.execute (own_core th).exec_unit ~slot:th.smt ~kind cycles
  else complete th (exec_op th ~kind cycles)

let insn_monitor th addr = complete th (monitor_op th addr)

let insn_mwait th =
  complete th (mwait_op th ~timed:false ~deadline:0);
  th.wval

let insn_mwait_for th ~deadline =
  complete th (mwait_op th ~timed:true ~deadline);
  th.wval

(* [exec th ~kind gap] until [ready ()], checking before each gap.
   [ready] reads simulated state that only an event can change, so
   while no event runs it keeps its answer: the gaps that would each
   continue inline ([Smt_core.serve_lone_gaps]) need no check between
   them, and the gap after them, which cannot continue inline, is an
   ordinary exec.  A stepped wait, whose one step the thread builds at
   its first spin: no spin allocates after that, and no gap switches
   fibers. *)
let rec spin_step th sp =
  let s = resume_op th in
  if s != Sim.finished then s
  else if sp.ready () then Sim.finished
  else begin
    Smt_core.serve_lone_gaps (own_core th).exec_unit ~slot:th.smt ~kind:sp.skind sp.gap;
    let s = exec_op th ~kind:sp.skind sp.gap in
    if s != Sim.finished then s else spin_step th sp
  end
[@@sl.zero_alloc]

let new_spinner th ~kind ~gap ready =
  let sp = { ready; skind = kind; gap; next = (fun () -> Sim.finished) } in
  sp.next <- (fun () -> spin_step th sp);
  th.spinner <- Some sp;
  sp

let spin th ~kind ~gap ready =
  if gap < 1 then invalid_arg "Chip.spin: gap must be at least 1";
  let sp =
    match th.spinner with
    | None -> new_spinner th ~kind ~gap ready
    | Some sp ->
      sp.ready <- ready;
      sp.skind <- kind;
      sp.gap <- gap;
      sp
  in
  Sim.wait sp.next
[@@sl.zero_alloc]

(* Fault the calling thread through its exception-descriptor pointer. *)
let raise_exception th kind ~info =
  let chip = th.chip in
  chip.exn_count <- chip.exn_count + 1;
  if chip.probe_on then emit chip (Probe.Exception_raised { ptid = th.t_ptid; kind; info });
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
    clear th f_pending_start;
    set_state th Ptid.Disabled ~reason:"fault";
    Sim.delay chip.params.Params.exception_descriptor_cycles;
    chip.exn_seq <- Int64.add chip.exn_seq 1L;
    Exception_desc.write chip.memory ~base:(Int64.to_int edp) ~seq:chip.exn_seq
      ~core_id:(home_core th) ~ptid:th.t_ptid kind ~info;
    (* Parked until a handler repairs our state and restarts us: an
       exec of no cycles. *)
    exec th 0
  end

(* --- §3.1 inter-thread instructions ---------------------------------------

   Each is written once over a target resolver, [translate] (a vtid
   through the caller's TDT) or [translate_keyed] (a raw ptid plus the
   target's secret key).  The resolver charges its lookup after the
   instruction's issue cost and returns the target, once the caller
   holds one of the Table 1 permission bits in [need] on it ([0] needs
   none); otherwise it faults the caller and raises [No_target].  The
   key is an argument ([translate] ignores it), so no resolver is a
   closure built per instruction.  The operand (vtid or target ptid) is
   the [info] of every fault the instruction raises.  Nothing here
   allocates on the way to a target. *)

exception No_target

(* [need] masks over the bits of [Tdt.perms_of_bits]: start, stop,
   either modify bit, and modify-most alone. *)
let need_start = 0b1000
let need_stop = 0b0100
let need_modify_any = 0b0011
let need_modify_most = 0b0001

let fault th kind operand =
  raise_exception th kind ~info:(Int64.of_int operand);
  raise No_target

let target_of th ptid operand =
  let mslot = mslot_of th.chip ptid in
  if mslot < 0 then fault th Exception_desc.Invalid_thread_access operand
  else th.chip.by_mslot.(mslot)

let translate ~need ~key:_ th vtid =
  let chip = th.chip in
  match th.tdt with
  | Some table ->
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
    if e < 0 then fault th Exception_desc.Invalid_thread_access vtid
    else begin
      let target = target_of th (e lsr 4) vtid in
      if need = 0 || is_supervisor th || e land need <> 0 then target
      else fault th Exception_desc.Permission_denied vtid
    end
  | None ->
    (* Supervisors without a table address ptids directly, with every
       permission. *)
    if is_supervisor th then target_of th vtid vtid
    else fault th Exception_desc.Permission_denied vtid

(* §3.2 secret-key capability scheme: the caller must present the
   target's published secret (supervisors pass regardless), and the key
   grants everything, as a supervisor's direct addressing does. *)
let translate_keyed ~need:_ ~key th target_ptid =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.tdt_cached_lookup_cycles;
  let target = target_of th target_ptid target_ptid in
  let keyed = match target.secret with Some s -> Int64.equal s key | None -> false in
  if is_supervisor th || keyed then target
  else fault th Exception_desc.Permission_denied target_ptid

(* The actor of a start or stop edge: a ptid, or [boot_actor] for the
   boot-time supervisor.  Its probe origin is built only for a probe. *)
let boot_actor = -1
let origin actor = if actor = boot_actor then Probe.Boot else Probe.Thread actor

let do_start ~actor target =
  let c = target.chip in
  match target.state with
  | Ptid.Disabled ->
    target.starts <- target.starts + 1;
    if c.probe_on then
      emit c
        (Probe.Start_edge { actor = origin actor; target = target.t_ptid; latched = false });
    (* The first start spawns the body.  So does a start of a
       crash-stopped thread not yet auto-restarted: the old instruction
       stream is gone, and the scheduled auto-restart then finds
       [f_crashed] clear and stands down. *)
    let respawn = (not (has target f_spawned)) || has target f_crashed in
    set target f_spawned;
    clear target f_crashed;
    schedule_wakeup target ~extra:0 ~reason:"start-wake"
      ~on_ready:(if respawn then fun () -> run_body target else fun () -> ())
  | Ptid.Runnable ->
    (* Already enabled: latch the start so it cannot be lost to a stop
       that is architecturally in flight (e.g. a server parking itself). *)
    set target f_pending_start;
    if c.probe_on then
      emit c
        (Probe.Start_edge { actor = origin actor; target = target.t_ptid; latched = true })
  | Ptid.Waiting -> ()

let do_stop ~actor target =
  let c = target.chip in
  if has target f_pending_start then
    (* The latched start absorbs this stop; the thread keeps running. *)
    clear target f_pending_start
  else
    match target.state with
    | Ptid.Runnable ->
      set_state target Ptid.Disabled ~reason:"stop";
      if c.probe_on then
        emit c (Probe.Stop_edge { actor = origin actor; target = target.t_ptid })
    | Ptid.Waiting ->
      Monitor.cancel_wait c.monitor target.mslot;
      stop_waiting target ~reason:"force-stop";
      if c.probe_on then
        emit c (Probe.Stop_edge { actor = origin actor; target = target.t_ptid });
      (* Claim the open park: a deadline expiry may have claimed the
         cell already (thread mid-restart); the force-stop still wins
         via the state check in the restart event. *)
      if target.cell = Open then fill_wake target wake_stop
    | Ptid.Disabled -> ()

let start_via resolve ~key th operand =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.start_stop_issue_cycles;
  match resolve ~need:need_start ~key th operand with
  | target -> do_start ~actor:th.t_ptid target
  | exception No_target -> ()

let stop_via resolve ~key th operand =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.start_stop_issue_cycles;
  match resolve ~need:need_stop ~key th operand with
  | target -> do_stop ~actor:th.t_ptid target
  | exception No_target -> ()

(* Remote register access needs a modify bit: reading, either one;
   writing, the one matching the register class.  Privileged control
   registers need no bit but always a supervisor caller. *)
let rpull_via resolve ~key th operand reg =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.rpull_rpush_cycles;
  match resolve ~need:need_modify_any ~key th operand with
  | exception No_target -> 0L
  | target ->
    if target.state <> Ptid.Disabled then begin
      raise_exception th Exception_desc.Invalid_thread_access
        ~info:(Int64.of_int operand);
      0L
    end
    else begin
      if th.chip.probe_on then
        emit th.chip (Probe.Reg_pull { actor = th.t_ptid; target = target.t_ptid; reg });
      Regstate.get target.regs reg
    end

let rpush_via resolve ~key th operand reg value =
  exec th ~kind:Smt_core.Overhead th.chip.params.Params.rpull_rpush_cycles;
  let privileged = Regstate.is_privileged_reg reg in
  let need =
    if privileged then 0
    else if Regstate.modify_some_allows reg then need_modify_any
    else need_modify_most
  in
  match resolve ~need ~key th operand with
  | exception No_target -> ()
  | target ->
    if privileged && not (is_supervisor th) then
      (* §3.2: privileged-register access from user mode always faults so a
         supervisor can emulate it. *)
      raise_exception th Exception_desc.Privileged_instruction
        ~info:(Int64.of_int operand)
    else if target.state <> Ptid.Disabled then
      raise_exception th Exception_desc.Invalid_thread_access
        ~info:(Int64.of_int operand)
    else begin
      if th.chip.probe_on then
        emit th.chip (Probe.Reg_push { actor = th.t_ptid; target = target.t_ptid; reg });
      Regstate.set target.regs reg value
    end

let insn_start th ~vtid = start_via translate ~key:0L th vtid
let insn_stop th ~vtid = stop_via translate ~key:0L th vtid
let insn_rpull th ~vtid reg = rpull_via translate ~key:0L th vtid reg
let insn_rpush th ~vtid reg value = rpush_via translate ~key:0L th vtid reg value
let insn_start_keyed th ~target_ptid ~key = start_via translate_keyed ~key th target_ptid
let insn_stop_keyed th ~target_ptid ~key = stop_via translate_keyed ~key th target_ptid

let insn_rpull_keyed th ~target_ptid ~key reg =
  rpull_via translate_keyed ~key th target_ptid reg

let insn_rpush_keyed th ~target_ptid ~key reg value =
  rpush_via translate_keyed ~key th target_ptid reg value

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
  if has th f_spawned then invalid_arg "Chip.boot: thread already started";
  set th f_spawned;
  th.starts <- th.starts + 1;
  if c.probe_on then
    emit c (Probe.Start_edge { actor = Probe.Boot; target = th.t_ptid; latched = false });
  set_state th Ptid.Runnable ~reason:"boot";
  run_body th

let shutdown th = do_stop ~actor:boot_actor th

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

let sum_threads t f = fold_threads (fun th acc -> acc + f th) t 0

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
