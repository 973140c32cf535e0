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

type status = Ready | Blocked of Time.t

type proc = {
  pid : int;
  pname : string option;
  mutable status : status;
  mutable daemon : bool;
      (* parked-by-design (servers, IRQ loops): excluded from {!suspects} *)
  mutable await_seq : int;  (* awaits issued by this process *)
  mutable resumed_seq : int;  (* highest await already resumed *)
}

(* The ready ring: events pushed for the current tick, FIFO (so in seq
   order), [len] of them from [head] in a power-of-two circular buffer.
   See [push] and [run]. *)
type 'a ring = {
  mutable items : 'a array;
  mutable seqs : int array;
  mutable head : int;
  mutable len : int;
  filler : 'a;  (* seeds vacated slots, as Pqueue's [dummy] *)
}

type t = {
  mutable now : Time.t;
  mutable seq : int;
  queue : (unit -> unit) Wheel.t;  (* events pushed for a later tick *)
  ready : (unit -> unit) ring;  (* events pushed for the current tick *)
  mutable next_pid : int;
  procs : (int, proc) Hashtbl.t;  (* live (not yet returned) processes *)
  mutable events : int;  (* events popped by {!run}, for perf accounting *)
}

type _ Effect.t +=
  | Now_eff : Time.t Effect.t
  | Delay_eff : Time.t -> unit Effect.t
  | Fork_eff : (unit -> unit) -> unit Effect.t
  | Await_eff : (('a -> unit) -> unit) -> 'a Effect.t
  | Daemon_eff : bool -> unit Effect.t

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
      seq = 0;
      queue = Wheel.create ~dummy:nop;
      ready = { items = [||]; seqs = [||]; head = 0; len = 0; filler = nop };
      next_pid = 0;
      procs = Hashtbl.create 32;
      events = 0;
    }
  in
  (match Domain.DLS.get creation_hook with Some f -> f t | None -> ());
  t

let time t = t.now
let events_processed t = t.events

(* Re-lay the ring out from index 0 at twice the capacity.  It starts
   empty, so a world that never schedules costs nothing here. *)
let ring_grow r =
  let cap = Array.length r.items in
  let cap' = max 8 (2 * cap) in
  let items = Array.make cap' r.filler and seqs = Array.make cap' 0 in
  for k = 0 to r.len - 1 do
    let j = (r.head + k) land (cap - 1) in
    items.(k) <- r.items.(j);
    seqs.(k) <- r.seqs.(j)
  done;
  r.items <- items;
  r.seqs <- seqs;
  r.head <- 0

(* [@@sl.zero_alloc]: the warm-path budget.  [ring_grow] allocates, but
   amortized doubling runs O(log n) times per world; the per-event path
   writes two slots of preallocated arrays. *)
let ring_push r seq x =
  if r.len = Array.length r.items then ring_grow r;
  let i = (r.head + r.len) land (Array.length r.items - 1) in
  r.items.(i) <- x;
  r.seqs.(i) <- seq;
  r.len <- r.len + 1
[@@sl.zero_alloc]

(* The vacated slot is re-seeded with [filler], so a fired thunk is
   collectable as soon as the run loop drops it. *)
let ring_pop r =
  let i = r.head in
  let x = r.items.(i) in
  r.items.(i) <- r.filler;
  r.head <- (i + 1) land (Array.length r.items - 1);
  r.len <- r.len - 1;
  x
[@@sl.zero_alloc]

(* An event for the current tick skips the wheel: it is later in seq than
   everything already pending at this tick, so appending to the ring
   keeps (time, seq) order.  About half of all events are these —
   mostly [await] resume hops. *)
let push t ~at thunk =
  t.seq <- t.seq + 1;
  if at = t.now then ring_push t.ready t.seq thunk
  else Wheel.push t.queue ~time:at ~seq:t.seq thunk

let schedule t ~at thunk =
  if at < t.now then invalid_arg "Sim.schedule: time in the past";
  push t ~at thunk

let new_proc t ?name ?(daemon = false) () =
  t.next_pid <- t.next_pid + 1;
  let proc =
    {
      pid = t.next_pid;
      pname = name;
      status = Ready;
      daemon;
      await_seq = 0;
      resumed_seq = 0;
    }
  in
  Hashtbl.replace t.procs proc.pid proc;
  proc

let retire t proc = Hashtbl.remove t.procs proc.pid

(* Run [f] as a coroutine: effects performed by [f] (and whatever it calls)
   suspend it and re-enqueue a continuation event.  [proc] is the
   bookkeeping record used by {!stuck}: a process is [Blocked] between an
   [Await_eff] suspension and the matching resume. *)
let rec exec t proc f =
  match_with f ()
    {
      retc = (fun () -> retire t proc);
      exnc = (fun e -> retire t proc; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Now_eff ->
            Some (fun (k : (a, _) continuation) -> continue k t.now)
          | Delay_eff d ->
            Some
              (fun (k : (a, _) continuation) ->
                if d < 0 then
                  discontinue k (Invalid_argument "Sim.delay: negative delay")
                else push t ~at:(t.now + d) (fun () -> continue k ()))
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
                (* The double-resume guard rides the proc's monotone await
                   counter instead of a fresh [bool ref] per await: a
                   stale resumer's captured [seq] is already covered by
                   [resumed_seq], whatever the process awaits next. *)
                proc.await_seq <- proc.await_seq + 1;
                let seq = proc.await_seq in
                proc.status <- Blocked t.now;
                register (fun v ->
                    if proc.resumed_seq >= seq then
                      invalid_arg "Sim.await: resume called twice";
                    proc.resumed_seq <- seq;
                    proc.status <- Ready;
                    (* [t.now] is read when the resumer fires, so the
                       process wakes at the resumer's current time. *)
                    push t ~at:t.now (fun () -> continue k v)))
          | _ -> None);
    }

let spawn ?name ?daemon t f =
  let proc = new_proc t ?name ?daemon () in
  push t ~at:t.now (fun () -> exec t proc f)

let blocked_procs t ~include_daemons =
  Hashtbl.fold
    (fun _ proc acc ->
      match proc.status with
      | Ready -> acc
      | Blocked _ when proc.daemon && not include_daemons -> acc
      | Blocked since -> { pid = proc.pid; name = proc.pname; blocked_since = since } :: acc)
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

(* The hot loop.  Every ring entry is at [now], and the clock moves only
   once the ring is empty, so the next event is either the ring head or
   the wheel minimum, and the wheel's can only win at [now] with a lower
   seq: an event the wheel holds for [now] was pushed before the clock
   got there, so it precedes every ring entry.  Pops are therefore in
   exact (time, seq) order, as with the wheel alone (property-tested in
   test/engine against one Pqueue).  No option or tuple boxing on the
   way.  Whichever way a bounded run ends — future event left beyond the
   horizon, or queue drained dry — the clock parks at the horizon, so
   [time] agrees between the two endings (it never moves backwards: a
   second bounded run with an earlier horizon is a no-op on the clock,
   and fires nothing, not even events due at the current tick). *)
let run ?until t =
  let horizon = match until with None -> Time.max_tick | Some h -> h in
  let park_at_horizon () =
    match until with Some h when h > t.now -> t.now <- h | _ -> ()
  in
  let q = t.queue and r = t.ready in
  let rec loop () =
    if r.len > 0 then begin
      if t.now <= horizon then begin
        let thunk =
          if
            (not (Wheel.is_empty q))
            && Wheel.min_time q = t.now
            && Wheel.min_seq q < r.seqs.(r.head)
          then Wheel.pop_min q
          else ring_pop r
        in
        t.events <- t.events + 1;
        thunk ();
        loop ()
      end
    end
    else if Wheel.is_empty q then park_at_horizon ()
    else begin
      let time = Wheel.min_time q in
      if time <= horizon then begin
        let thunk = Wheel.pop_min q in
        t.now <- time;
        t.events <- t.events + 1;
        thunk ();
        loop ()
      end
      else
        (* Leave future events unprocessed; clock parks at the horizon. *)
        park_at_horizon ()
    end
  in
  loop ()

let now () = perform Now_eff
let delay d = perform (Delay_eff d)
let fork f = perform (Fork_eff f)
let await register = perform (Await_eff register)
let set_daemon d = perform (Daemon_eff d)
