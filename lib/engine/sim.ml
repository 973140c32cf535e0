open Effect
open Effect.Deep

(* Simulated time as an immediate 63-bit int — see the .mli and
   DESIGN.md ("Tick representation") for why this suffices and what the
   overflow policy is.  Everything downstream of Sim states times in
   terms of this module so the representation is written down exactly
   once. *)
module Time = struct
  type t = int

  let zero = 0
  let max_tick = max_int
  (* The int-identity ops sit on the hot event loop; the budget keeps
     them from regressing into boxing (e.g. an accidental int64). *)
  let of_int n = n [@@sl.zero_alloc]
  let to_int n = n [@@sl.zero_alloc]
  let to_float = float_of_int
  let add = ( + ) [@@sl.zero_alloc]
  let compare = Int.compare [@@sl.zero_alloc]
  let pp ppf n = Format.pp_print_int ppf n
  let to_string = string_of_int
end

type blocked = { pid : int; name : string option; blocked_since : Time.t }

(* [proc.blocked_since] of a process that is not waiting. *)
let not_blocked = -1

type proc = {
  pid : int;
  pname : string option;
  mutable blocked_since : Time.t;  (* [not_blocked] unless suspended *)
  mutable daemon : bool;
      (* parked-by-design (servers, IRQ loops): excluded from {!suspects} *)
  mutable await_seq : int;  (* awaits issued by this process *)
  mutable resumed_seq : int;  (* highest await already resumed *)
}

type waker = unit -> unit

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Wheel.t;  (* every pending event, see [run] *)
  mutable next_pid : int;
  procs : (int, proc) Hashtbl.t;  (* live (not yet returned) processes *)
  mutable events : int;  (* events popped by {!run}, for perf accounting *)
  mutable nested : bool;  (* a run of another world is inside one of our events *)
  mutable horizon : Time.t;  (* the executing [run]'s [until] *)
  mutable in_proc : bool;  (* the code running is one of our processes' *)
}

type _ Effect.t +=
  | Delay_eff : Time.t -> unit Effect.t
  | Fork_eff : (unit -> unit) -> unit Effect.t
  | Await_eff : (('a -> unit) -> unit) -> 'a Effect.t
  | Suspend_eff : (waker -> unit) -> unit Effect.t
  | Daemon_eff : bool -> unit Effect.t

type suspension = unit Effect.t  (* a [Suspend_eff], built once per waiting point *)

(* Where a process waits in {!suspend} or a blocking {!delay}, made
   with the process by [exec].  Only the process's handler, its waker
   and a pending delay's event reference it, never [procs]: the bench
   and perfbench creation hooks keep every world alive, and a world
   must not keep a parked process's stack alive once nothing can wake
   it. *)
type parking = {
  world : t;
  proc : proc;
  mutable k : (unit, unit) continuation;  (* spent unless parked or delayed *)
  mutable parked : bool;
  hop : unit -> unit;  (* the wake's or the delay's event: [continue k ()] *)
  waker : waker;
}

(* The continuation of a parking that has not parked yet: one captured
   at start-up and never resumed. *)
let no_k : (unit, unit) continuation =
  let k : (unit, unit) continuation option ref = ref None in
  match_with perform (Suspend_eff ignore)
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with Suspend_eff _ -> Some (fun c -> k := Some c) | _ -> None);
    };
  Option.get !k

let no_waker : waker = fun () -> invalid_arg "Sim.wake: no suspension to wake"

(* The world whose [run] is executing on this domain, if any; [now]
   reads its clock. *)
let running : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Lets the bench harness observe every simulation world an experiment
   builds (for end-of-run stuck reporting) without the experiments
   threading the worlds out themselves.  Domain-local: each runner domain
   installs (and sees) only its own hook, so experiments fanned out over
   [Domain.spawn] never observe one another's worlds. *)
let creation_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_creation_hook f = Domain.DLS.set creation_hook (Some f)
let clear_creation_hook () = Domain.DLS.set creation_hook None

let nop () = ()

let create () =
  let t =
    {
      now = Time.zero;
      queue = Wheel.create ~dummy:nop;
      next_pid = 0;
      procs = Hashtbl.create 32;
      events = 0;
      nested = false;
      horizon = Time.max_tick;
      in_proc = false;
    }
  in
  (match Domain.DLS.get creation_hook with Some f -> f t | None -> ());
  t

let time t = t.now
let events_processed t = t.events

(* The wheel keeps push order within a tick.  About half of all events
   are for the current tick, mostly [await] resume hops. *)
let push t ~at thunk = Wheel.push t.queue ~time:at thunk

let schedule t ~at thunk =
  if at < t.now then invalid_arg "Sim.schedule: time in the past";
  push t ~at thunk

let new_proc t ?name ?(daemon = false) () =
  t.next_pid <- t.next_pid + 1;
  let proc =
    {
      pid = t.next_pid;
      pname = name;
      blocked_since = not_blocked;
      daemon;
      await_seq = 0;
      resumed_seq = 0;
    }
  in
  Hashtbl.replace t.procs proc.pid proc;
  proc

let retire t proc = Hashtbl.remove t.procs proc.pid

(* Resume a parked process: the same same-tick hop as an [await]
   resume, with nothing allocated. *)
let wake_parking p =
  if not p.parked then invalid_arg "Sim.wake: no suspension to wake";
  p.parked <- false;
  p.proc.blocked_since <- not_blocked;
  push p.world ~at:p.world.now p.hop
[@@sl.zero_alloc]

(* The handler of a suspension that reaches a process of a world other
   than the one running: a [schedule] callback of a run nested inside
   that process. *)
let foreign_suspend =
  Some
    (fun (k : (unit, unit) continuation) ->
      discontinue k (Invalid_argument "Sim.suspend: the process belongs to another world"))

(* An [await]'s resume: checks the process's monotone await counter and
   queues the hop at the resumer's current time.  The closures capture
   the parking record, which reaches both the process and its world. *)
let resume_await p seq k v =
  let proc = p.proc and t = p.world in
  (* The double-resume guard rides the proc's monotone await counter
     instead of a fresh [bool ref] per await: a stale resumer's
     captured [seq] is already covered by [resumed_seq], whatever the
     process awaits next. *)
  if proc.resumed_seq >= seq then invalid_arg "Sim.await: resume called twice";
  proc.resumed_seq <- seq;
  proc.blocked_since <- not_blocked;
  push t ~at:t.now (fun () ->
      t.in_proc <- true;
      continue k v)

(* Run [f] as a coroutine: effects performed by [f] (and whatever it calls)
   suspend it and re-enqueue a continuation event.  [proc] is the
   bookkeeping record used by {!stuck}: a process is blocked between an
   [Await_eff] or [Suspend_eff] suspension and the matching resume.
   [t.in_proc] holds while the process's code runs: from its start or
   any resume until it blocks or returns.  An exception that escapes a
   process escapes the run, which restores the flag. *)
let rec exec t proc f =
  let rec p =
    {
      world = t;
      proc;
      k = no_k;
      parked = false;
      hop =
        (fun () ->
          p.world.in_proc <- true;
          continue p.k ());
      waker = (fun () -> wake_parking p);
    }
  in
  (* Preallocated, so that a suspension or a delay allocates only the
     runtime's continuation.  [effc] registers the waker, or queues the
     delay's hop, before the handler gets [k]; either hop runs only
     after [k] is stored. *)
  let on_suspend = Some (fun (k : (unit, unit) continuation) -> p.k <- k) in
  t.in_proc <- true;
  match_with f ()
    {
      retc =
        (fun () ->
          t.in_proc <- false;
          retire t proc);
      exnc = (fun e -> retire t proc; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Suspend_eff register ->
            if t.nested then foreign_suspend
            else begin
              t.in_proc <- false;
              p.parked <- true;
              proc.blocked_since <- t.now;
              register p.waker;
              on_suspend
            end
          | Delay_eff d ->
            if d < 0 then
              Some (fun k -> discontinue k (Invalid_argument "Sim.delay: negative delay"))
            else if d > Time.max_tick - t.now then
              Some (fun k -> discontinue k (Invalid_argument "Sim.delay: past Time.max_tick"))
            else begin
              t.in_proc <- false;
              push t ~at:(t.now + d) p.hop;
              on_suspend
            end
          | Fork_eff g ->
            Some
              (fun (k : (a, _) continuation) ->
                let child = new_proc t () in
                push t ~at:t.now (fun () -> exec t child g);
                continue k ())
          | Daemon_eff d ->
            Some
              (fun (k : (a, _) continuation) ->
                proc.daemon <- d;
                continue k ())
          | Await_eff register ->
            Some
              (fun (k : (a, _) continuation) ->
                let proc = p.proc in
                proc.await_seq <- proc.await_seq + 1;
                let seq = proc.await_seq in
                proc.blocked_since <- p.world.now;
                p.world.in_proc <- false;
                register (fun v -> resume_await p seq k v))
          | _ -> None);
    }

let spawn ?name ?daemon t f =
  let proc = new_proc t ?name ?daemon () in
  push t ~at:t.now (fun () -> exec t proc f)

let blocked_procs t ~include_daemons =
  Hashtbl.fold
    (fun _ proc acc ->
      if proc.blocked_since = not_blocked || (proc.daemon && not include_daemons) then acc
      else { pid = proc.pid; name = proc.pname; blocked_since = proc.blocked_since } :: acc)
    t.procs []
  |> List.sort (fun (a : blocked) (b : blocked) -> compare a.pid b.pid)

let stuck t = blocked_procs t ~include_daemons:true
let suspects t = blocked_procs t ~include_daemons:false

let describe_blocked b =
  match b.name with
  | Some n -> Printf.sprintf "%s (pid %d, since %d)" n b.pid b.blocked_since
  | None -> Printf.sprintf "pid %d (since %d)" b.pid b.blocked_since

let stuck_summary t =
  match stuck t with
  | [] -> None
  | blocked ->
    Some
      (Printf.sprintf "%d process(es) still blocked: %s" (List.length blocked)
         (String.concat ", " (List.map describe_blocked blocked)))

(* The hot loop.  The wheel hands over whole ticks in push order, so
   the loop only pops the ready ring while it holds events, and
   otherwise asks the wheel for the next tick up to the horizon.  No
   option or tuple boxing on the way.  Whichever way a bounded run ends
   — future event left beyond the horizon, or queue drained dry — the
   clock parks at the horizon, so [time] agrees between the two endings
   (it never moves backwards: a second bounded run with an earlier
   horizon is a no-op on the clock, and fires nothing, not even events
   due at the current tick).  The wheel's cursor may trail a parked
   clock; a push for the parked tick then waits in a chain, and the next
   [advance] reaches it before anything later.  While the loop runs,
   [running] names this world, a caller's world is marked [nested], and
   [t.horizon] holds the horizon for {!skip_to}; all three come back
   when the loop returns or raises, and so does [t.in_proc], which the
   loop clears so that its callbacks are never taken for processes. *)
let run ?until t =
  let horizon = match until with None -> Time.max_tick | Some h -> h in
  let q = t.queue in
  let rec loop () =
    if Wheel.ready q then begin
      if t.now <= horizon then begin
        let thunk = Wheel.pop q in
        t.events <- t.events + 1;
        thunk ();
        loop ()
      end
    end
    else begin
      let tick = Wheel.advance q ~limit:horizon in
      if tick >= 0 then begin
        t.now <- tick;
        loop ()
      end
      else match until with Some h when h > t.now -> t.now <- h | _ -> ()
    end
  in
  let outer = Domain.DLS.get running in
  let mark nested = match outer with Some o when o != t -> o.nested <- nested | _ -> () in
  let outer_horizon = t.horizon and outer_in_proc = t.in_proc in
  Domain.DLS.set running (Some t);
  mark true;
  t.horizon <- horizon;
  t.in_proc <- false;
  Fun.protect
    ~finally:(fun () ->
      mark false;
      t.horizon <- outer_horizon;
      t.in_proc <- outer_in_proc;
      Domain.DLS.set running outer)
    loop

let now () =
  match Domain.DLS.get running with
  | Some t -> t.now
  | None -> invalid_arg "Sim.now: no world is running on this domain"

(* A blocked process's path to [at] is one event that resumes it there
   (a delay's hop, or a completion that wakes it plus the wake's
   same-tick hop).  When no other event is due by [at], and the clock
   may reach [at] in the executing run, nothing can run before that
   path or beside it at [at], so moving the clock there and continuing
   inline is indistinguishable from it, except in [events].  The caller
   must be one of the world's own processes ([in_proc]): not a
   callback, and not code inside a run nested in one of its processes
   ([nested]).  [due] never misses a pending tick, and a spurious "due"
   only costs the skip. *)
let skip_to t at =
  t.in_proc && (not t.nested) && at >= t.now && at <= t.horizon
  && (not (Wheel.due t.queue ~limit:at))
  &&
  (t.now <- at;
   true)
[@@sl.zero_alloc]

let delay d =
  match Domain.DLS.get running with
  | Some t when d <= Time.max_tick - t.now && skip_to t (t.now + d) -> ()
  | _ -> perform (Delay_eff d)
let fork f = perform (Fork_eff f)
let await register = perform (Await_eff register)

let suspension register : suspension = Suspend_eff register
let suspend (s : suspension) = perform s

let wake (w : waker) = w () [@@sl.zero_alloc]
let set_daemon d = perform (Daemon_eff d)
