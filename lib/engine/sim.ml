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

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Wheel.t;  (* every pending event, see [run] *)
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
      queue = Wheel.create ~dummy:nop;
      next_pid = 0;
      procs = Hashtbl.create 32;
      events = 0;
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
                else if d > Time.max_tick - t.now then
                  discontinue k (Invalid_argument "Sim.delay: past Time.max_tick")
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
   [advance] reaches it before anything later. *)
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
  loop ()

let now () = perform Now_eff
let delay d = perform (Delay_eff d)
let fork f = perform (Fork_eff f)
let await register = perform (Await_eff register)
let set_daemon d = perform (Daemon_eff d)
