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
end

type blocked = {
  pid : int;
  name : string option;
  ptid : int option;
  blocked_since : Time.t;
}

(* [proc.blocked_since] of a process that is not waiting. *)
let not_blocked = -1

(* A live process, linked into its world's ring in pid order. *)
type proc = {
  pid : int;
  pname : string;  (* [unnamed] unless spawned with a name *)
  pptid : int;  (* the hardware thread it runs, [no_ptid] for none *)
  mutable blocked_since : Time.t;  (* [not_blocked] unless suspended *)
  mutable daemon : bool;
      (* parked-by-design (servers, IRQ loops): excluded from {!suspects} *)
  mutable prev : proc;
  mutable next : proc;
}

(* The name of a process spawned without one.  Allocated here, and
   compared with [==], so that no name a caller passes is taken for
   it. *)
let unnamed = String.make 1 '-'

(* [proc.pptid] of a process that runs no hardware thread. *)
let no_ptid = -1

(* [t.running_pid] while no process's code runs: pids start at 1. *)
let no_pid = 0

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Wheel.t;  (* every pending event, see [run] *)
  mutable next_pid : int;
  procs : proc;  (* sentinel of the ring of live (not yet returned) processes *)
  mutable events : int;  (* events popped by {!run}, for perf accounting *)
  mutable nested : bool;  (* a run of another world is inside one of our events *)
  mutable horizon : Time.t;  (* the executing [run]'s [until] *)
  mutable running_pid : int;  (* whose code is running, [no_pid] in a callback *)
  mutable current : parking;  (* the running process's, else [idle] *)
  mutable handler : (unit, unit) handler;  (* every process's, see [exec]; set once *)
  mutable counters : counter list;  (* {!count}'s, newest name first *)
}

and counter = { name : string; mutable n : int }

(* Where a process waits in {!suspend} or a blocking {!delay}, made
   with the process by [exec].  It is also the process's waker: a
   suspension hands the registrar the parking itself.  Only the
   wakers callers keep, a pending hop's event and, while the process
   runs, [current] reference it, never the ring: the bench and
   perfbench world observers keep every world alive, and a world must
   not keep a parked process's stack alive once nothing can wake it.
   It is parked exactly while its proc's [blocked_since] is set. *)
and parking = {
  world : t;
  proc : proc;
  mutable k : (unit, unit) continuation;  (* spent unless parked or delayed *)
  mutable step : unit -> unit Effect.t;  (* [no_step] unless in a stepped {!wait} *)
  mutable hop : unit -> unit;  (* the wake's or the delay's event, see [resume] *)
}

type waker = parking

(* The ways a process blocks: a delay, a suspension point's registrar,
   or a wait queue.  A queue is the effect its processes perform to
   park on it: the constructor's inline record is a ring of their
   parkings, oldest at [head], and the handler appends the parking
   process itself, so a queue is its own suspension point and needs no
   registrar closure.  A vacant slot holds [idle], so the ring keeps
   no process it has let go of. *)
type _ Effect.t +=
  | Delay_eff : Time.t -> unit Effect.t
  | Suspend_eff : (waker -> unit) -> unit Effect.t
  | Queue_eff : {
      mutable parked : parking array;  (* empty, or a power of two long *)
      mutable head : int;
      mutable len : int;
    }
      -> unit Effect.t

type queue = unit Effect.t  (* always a [Queue_eff] *)

type suspension = unit Effect.t  (* a [Suspend_eff] carrying its registrar *)

let no_suspension : suspension = Suspend_eff ignore

(* What a step returns when its wait is over: no process parks on it. *)
let finished : suspension =
  Suspend_eff (fun (_ : waker) -> invalid_arg "Sim.finished: not a waiting point")

(* [parking.step] of a process that is not in a stepped wait. *)
let no_step () = finished

(* The continuation of a parking that has not parked yet: one captured
   at start-up and never resumed. *)
let no_k : (unit, unit) continuation =
  let k : (unit, unit) continuation option ref = ref None in
  match_with perform no_suspension
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with Suspend_eff _ -> Some (fun c -> k := Some c) | _ -> None);
    };
  Option.get !k

(* The world whose [run] is executing on this domain, if any; [now]
   reads its clock. *)
let running : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Every world component announces itself at the end of its [create],
   and observers (the bench harness, fault injection, the sanitizers)
   attach to components built deep inside experiment runners without the
   builders knowing of them.  One keyed list, in installation order;
   domain-local, so observers installed by one parallel experiment
   runner never see components built by another. *)
type component = ..
type component += World of t

let observers : (string * (component -> unit)) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let unobserve ~key =
  Domain.DLS.set observers
    (List.filter (fun (k, _) -> k <> key) (Domain.DLS.get observers))

let observe ~key f =
  unobserve ~key;
  Domain.DLS.set observers (Domain.DLS.get observers @ [ (key, f) ])

let observing ~key f body =
  let outer = List.assoc_opt key (Domain.DLS.get observers) in
  observe ~key f;
  Fun.protect body ~finally:(fun () ->
      match outer with Some g -> observe ~key g | None -> unobserve ~key)

let rec announce_to c = function
  | [] -> ()
  | (_, f) :: rest ->
    f c;
    announce_to c rest

let announce c = announce_to c (Domain.DLS.get observers)

(* Kept for perfbench/obs.ml until it observes [World] itself. *)
let set_creation_hook f =
  observe ~key:"sim.creation_hook" (function World t -> f t | _ -> ())

let clear_creation_hook () = unobserve ~key:"sim.creation_hook"

let nop () = ()

let no_handler : (unit, unit) handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) }

(* The parking in a world's [current] while none of its processes
   runs, in every world, and the waker of an empty cell ({!no_waker}).
   No process parks on it, and nothing writes to it: its world and ring
   are placeholders that run nothing.  Also the links of a new ring's
   sentinel until [create] closes them, so this is the one knot
   ([let rec]) tied, once; a world tied to an idle parking of its own
   would build both records twice. *)
let idle =
  let rec ring =
    {
      pid = no_pid;
      pname = unnamed;
      pptid = no_ptid;
      blocked_since = not_blocked;
      daemon = false;
      prev = ring;
      next = ring;
    }
  and world =
    {
      now = Time.zero;
      queue = Wheel.create ~dummy:nop;
      next_pid = 0;
      procs = ring;
      events = 0;
      nested = false;
      horizon = Time.max_tick;
      running_pid = no_pid;
      current = idle;
      handler = no_handler;
      counters = [];
    }
  and idle = { world; proc = ring; k = no_k; step = no_step; hop = nop } in
  idle

(* The wheel keeps push order within a tick.  About half of all events
   are for the current tick, mostly resume hops. *)
let push t ~at thunk = Wheel.push t.queue ~time:at thunk

(* Resume a parked process: a same-tick hop, with nothing allocated. *)
let wake p =
  if p.proc.blocked_since = not_blocked then invalid_arg "Sim.wake: no suspension to wake";
  p.proc.blocked_since <- not_blocked;
  push p.world ~at:p.world.now p.hop
[@@sl.zero_alloc]

let retire proc =
  proc.prev.next <- proc.next;
  proc.next.prev <- proc.prev;
  proc.prev <- proc;
  proc.next <- proc

(* The running process returned, or an exception escaped it. *)
let finish t =
  let p = t.current in
  t.running_pid <- no_pid;
  t.current <- idle;
  retire p.proc

(* The handler's answer to a block it must not take: the process gets
   [Invalid_argument msg] where it blocked. *)
let refuse msg =
  Some (fun (k : (unit, unit) continuation) -> discontinue k (Invalid_argument msg))

(* The running process [p] parks: it stops running before its
   registrar runs or it joins a queue, so that a registrar runs as a
   callback would. *)
let block t p =
  t.running_pid <- no_pid;
  p.proc.blocked_since <- t.now
[@@inline]

(* [p] joins [q]'s tail.  A queue's first park builds its one-slot
   ring in place (an ivar's only), and a full ring doubles. *)
let enqueue (q : queue) p =
  match q with
  | Queue_eff r ->
    let cap = Array.length r.parked in
    if cap = 0 then r.parked <- [| p |]
    else begin
      if r.len = cap then begin
        let parked = Array.make (2 * cap) idle in
        for i = 0 to r.len - 1 do
          parked.(i) <- r.parked.((r.head + i) land (cap - 1))
        done;
        r.parked <- parked;
        r.head <- 0
      end;
      r.parked.((r.head + r.len) land (Array.length r.parked - 1)) <- p
    end;
    r.len <- r.len + 1
  | _ -> assert false

(* The effect half of a world's one handler, which finds the blocking
   process in [t.current] ([exec] and each hop set it).  A block clears
   [running_pid] before it registers the waker or queues the delay's
   hop, and hands [k] to [on_suspend], which stores it in the parking
   and takes [current] back to [idle]; either hop runs only after that.
   So a suspension allocates only the runtime's continuation, and
   [current] never holds a parked process.  While [t.nested], or while
   [current] is [idle], a block comes from a callback of a run nested
   inside the process (of another world, or of this one), and is
   refused. *)
let handle t (on_suspend : ((unit, unit) continuation -> unit) option) (type a)
    (eff : a Effect.t) :
    ((a, unit) continuation -> unit) option =
  match eff with
  | Suspend_eff register ->
    if t.nested || t.current == idle then
      refuse "Sim.suspend: the process belongs to another world"
    else begin
      block t t.current;
      register t.current;
      on_suspend
    end
  | Queue_eff _ ->
    if t.nested || t.current == idle then
      refuse "Sim.park: the process belongs to another world"
    else begin
      block t t.current;
      enqueue eff t.current;
      on_suspend
    end
  | Delay_eff d ->
    if t.nested || t.current == idle then
      refuse "Sim.delay: the process belongs to another world"
    else if d < 0 then refuse "Sim.delay: negative delay"
    else if d > Time.max_tick - t.now then refuse "Sim.delay: past Time.max_tick"
    else begin
      t.running_pid <- no_pid;
      push t ~at:(t.now + d) t.current.hop;
      on_suspend
    end
  | _ -> None

(* A world and its one handler, whose record and closures every
   process shares.  Its ring's sentinel is closed, and its handler set,
   once the records they point to exist. *)
let create () =
  let ring =
    {
      pid = no_pid;
      pname = unnamed;
      pptid = no_ptid;
      blocked_since = not_blocked;
      daemon = false;
      prev = idle.proc;
      next = idle.proc;
    }
  in
  ring.prev <- ring;
  ring.next <- ring;
  let t =
    {
      now = Time.zero;
      queue = Wheel.create ~dummy:nop;
      next_pid = 0;
      procs = ring;
      events = 0;
      nested = false;
      horizon = Time.max_tick;
      running_pid = no_pid;
      current = idle;
      handler = no_handler;
      counters = [];
    }
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.current.k <- k;
        t.current <- idle)
  in
  t.handler <-
    {
      retc = (fun () -> finish t);
      exnc = (fun e -> finish t; raise e);
      effc = (fun eff -> handle t on_suspend eff);
    };
  announce (World t);
  t

let time t = t.now
let events_processed t = t.events

let schedule_tagged t ~at ~tag f =
  if at < t.now then invalid_arg "Sim.schedule: time in the past";
  Wheel.push_tagged t.queue ~time:at ~tag f
[@@sl.zero_alloc]

let schedule t ~at f = schedule_tagged t ~at ~tag:0 f

(* The run loop pops through the wheel, which keeps the popped event's
   tag, so the loop itself stores nothing per event. *)
let event_tag t = Wheel.popped_tag t.queue

(* A new process joins the ring's tail: pids only grow, so the ring
   stays in pid order. *)
let new_proc t ~name ~ptid ~daemon =
  t.next_pid <- t.next_pid + 1;
  let tail = t.procs.prev in
  let proc =
    {
      pid = t.next_pid;
      pname = name;
      pptid = ptid;
      blocked_since = not_blocked;
      daemon;
      prev = tail;
      next = t.procs;
    }
  in
  tail.next <- proc;
  t.procs.prev <- proc;
  proc

(* A hop: the parked or delayed process runs again, as its fiber or,
   in a stepped wait, as the wait's next step (see {!wait}).  A step
   that blocks parks the process as a suspension does, and leaves the
   fiber where it is; the last step continues the fiber, or
   discontinues it with what the step raised. *)
let resume p =
  let t = p.world in
  t.running_pid <- p.proc.pid;
  t.current <- p;
  if p.step == no_step then continue p.k ()
  else
    match p.step () with
    | s when s == finished ->
      p.step <- no_step;
      continue p.k ()
    | Suspend_eff register ->
      block t p;
      register p;
      t.current <- idle
    | _ -> invalid_arg "Sim.wait: a step returned no suspension"
    | exception e ->
      p.step <- no_step;
      discontinue p.k e
[@@sl.zero_alloc]

(* Run [f] as a coroutine under the world's handler: a suspend or a
   delay performed by [f] (and whatever it calls) parks its
   continuation in the parking record until the waker or the delay's
   event pushes the hop.  [proc] is the bookkeeping record used by
   {!stuck}: a process is blocked between a suspension and its wake.
   [t.running_pid] and [t.current] name the process while its code
   runs: from its start or any resume until it blocks or returns.  An
   exception that escapes a process retires it and escapes the run. *)
let exec t proc f =
  (* The hop closes over the parking, so it is set once the parking
     exists: a [let rec] would build the record twice. *)
  let p = { world = t; proc; k = no_k; step = no_step; hop = nop } in
  p.hop <- (fun () -> resume p);
  t.running_pid <- proc.pid;
  t.current <- p;
  match_with f () t.handler

let start t proc f = push t ~at:t.now (fun () -> exec t proc f)

let spawn ?(name = unnamed) ?(daemon = false) t f =
  start t (new_proc t ~name ~ptid:no_ptid ~daemon) f

let spawn_thread t ~ptid f =
  if ptid < 0 then invalid_arg "Sim.spawn_thread: negative ptid";
  start t (new_proc t ~name:unnamed ~ptid ~daemon:false) f

(* The ring walked from its tail, so the list comes out in pid order. *)
let blocked_procs t ~include_daemons =
  let rec collect (proc : proc) acc =
    if proc == t.procs then acc
    else
      collect proc.prev
        (if proc.blocked_since = not_blocked || (proc.daemon && not include_daemons)
         then acc
         else
           {
             pid = proc.pid;
             name = (if proc.pname == unnamed then None else Some proc.pname);
             ptid = (if proc.pptid = no_ptid then None else Some proc.pptid);
             blocked_since = proc.blocked_since;
           }
           :: acc)
  in
  collect t.procs.prev []

let stuck t = blocked_procs t ~include_daemons:true
let suspects t = blocked_procs t ~include_daemons:false

(* A hardware thread's process is named after its ptid here, when it
   is reported, not at each spawn. *)
let describe_blocked b =
  match (b.ptid, b.name) with
  | Some p, _ -> Printf.sprintf "ptid-%d (pid %d, since %d)" p b.pid b.blocked_since
  | None, Some n -> Printf.sprintf "%s (pid %d, since %d)" n b.pid b.blocked_since
  | None, None -> Printf.sprintf "pid %d (since %d)" b.pid b.blocked_since

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
   [t.horizon] holds the horizon for {!quiet_until}; all three come back
   when the loop returns or raises, and so do [t.running_pid] and
   [t.current], which the loop clears so that its callbacks are never
   taken for processes. *)
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
  let outer_horizon = t.horizon and outer_pid = t.running_pid
  and outer_current = t.current in
  Domain.DLS.set running (Some t);
  mark true;
  t.horizon <- horizon;
  t.running_pid <- no_pid;
  t.current <- idle;
  Fun.protect
    ~finally:(fun () ->
      mark false;
      t.horizon <- outer_horizon;
      t.running_pid <- outer_pid;
      t.current <- outer_current;
      Domain.DLS.set running outer)
    loop

let now () =
  match Domain.DLS.get running with
  | Some t -> t.now
  | None -> invalid_arg "Sim.now: no world is running on this domain"

(* The last tick to which the running process may continue inline:
   the wheel's quiet tick, capped at the executing run's horizon.  Only
   one of the world's processes ([running_pid]) may: not a callback,
   and not code inside a run nested in one of its processes ([nested]),
   for which it is [min_int]. *)
let quiet_until t =
  if t.running_pid = no_pid || t.nested then min_int
  else
    let quiet = Wheel.quiet_until t.queue in
    if quiet < t.horizon then quiet else t.horizon
[@@sl.zero_alloc]

(* A blocked process's path to [at] is one event that resumes it there
   (a delay's hop, or a completion that wakes it plus the wake's
   same-tick hop).  When no other event is due by [at], and the clock
   may reach [at] in the executing run, nothing can run before that
   path or beside it at [at], so moving the clock there and continuing
   inline is indistinguishable from it, except in [events].  The quiet
   tick never reaches a pending tick, and falling short of one only
   costs the skip. *)
let skip_to t at =
  at >= t.now && at <= quiet_until t
  &&
  (t.now <- at;
   true)
[@@sl.zero_alloc]

let delay d =
  match Domain.DLS.get running with
  | Some t when d <= Time.max_tick - t.now && skip_to t (t.now + d) -> ()
  | _ -> perform (Delay_eff d)

let suspension register : suspension = Suspend_eff register
let suspend (s : suspension) = perform s

(* The first step runs in the fiber, as the code before a loop's first
   block would.  The fiber suspends only at the first suspension a
   step returns, with [step] in its parking: every later step runs in
   [resume]. *)
let wait step =
  let s = step () in
  if s != finished then begin
    (match Domain.DLS.get running with
    | Some t when t.running_pid <> no_pid -> t.current.step <- step
    | _ -> ());
    perform s
  end
[@@sl.zero_alloc]

let no_waker (_ : t) = idle

(* An await is one suspension whose registrar hands [register] a
   resume over a fresh one-shot cell.  The cell is the double-resume
   guard: only the first resume finds it empty, so neither a second
   resume nor a stale one from an earlier await reaches the waker. *)
let await register =
  let cell = ref None in
  suspend
    (Suspend_eff
       (fun waker ->
         register (fun v ->
             if Option.is_some !cell then invalid_arg "Sim.await: resume called twice";
             cell := Some v;
             wake waker)));
  Option.get !cell

(* The world whose process is running on this domain, for the calls
   that act on that process without blocking it. *)
let running_world op =
  match Domain.DLS.get running with
  | Some t when t.running_pid <> no_pid -> t
  | _ -> invalid_arg (op ^ ": not called from a process")

let fork f = spawn (running_world "Sim.fork") f

let self () = (running_world "Sim.self").current

let queue () = Queue_eff { parked = [||]; head = 0; len = 0 }

let park (q : queue) = perform q

(* The woken process's slot is re-seeded with [idle], so the queue
   keeps nothing of it. *)
let wake_first (q : queue) =
  match q with
  | Queue_eff r ->
    r.len > 0
    && begin
      let p = r.parked.(r.head) in
      r.parked.(r.head) <- idle;
      r.head <- (r.head + 1) land (Array.length r.parked - 1);
      r.len <- r.len - 1;
      wake p;
      true
    end
  | _ -> assert false
[@@sl.zero_alloc]

let rec wake_all q = if wake_first q then wake_all q

(* The processes parked behind [w] move up a slot. *)
let unpark (q : queue) w =
  match q with
  | Queue_eff r ->
    let mask = Array.length r.parked - 1 in
    let i = ref 0 in
    while !i < r.len && r.parked.((r.head + !i) land mask) != w do
      incr i
    done;
    !i < r.len
    && begin
      for j = !i to r.len - 2 do
        r.parked.((r.head + j) land mask) <- r.parked.((r.head + j + 1) land mask)
      done;
      r.parked.((r.head + r.len - 1) land mask) <- idle;
      r.len <- r.len - 1;
      wake w;
      true
    end
  | _ -> assert false

let after d f =
  match Domain.DLS.get running with
  | Some t ->
    if d < 0 then invalid_arg "Sim.after: negative delay";
    if d > Time.max_tick - t.now then invalid_arg "Sim.after: past Time.max_tick";
    push t ~at:(t.now + d) f
  | None -> invalid_arg "Sim.after: no world is running on this domain"

let set_daemon d = (running_world "Sim.set_daemon").current.proc.daemon <- d

(* A world counts a handful of names, so its counters are a list. *)
let rec bump name = function
  | [] -> false
  | c :: rest -> if String.equal c.name name then (c.n <- c.n + 1; true) else bump name rest

let count name =
  match Domain.DLS.get running with
  | Some t -> if not (bump name t.counters) then t.counters <- { name; n = 1 } :: t.counters
  | None -> invalid_arg "Sim.count: no world is running on this domain"

let counts worlds =
  let add acc c =
    let n = Option.value ~default:0 (List.assoc_opt c.name acc) in
    (c.name, n + c.n) :: List.remove_assoc c.name acc
  in
  List.fold_left (fun acc t -> List.fold_left add acc t.counters) [] worlds
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
