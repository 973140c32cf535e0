(* Same waiter representation as {!Ivar}: most emissions find nobody (or
   exactly one process) waiting, so the no/single-waiter paths must not
   allocate — the original queue-backed version paid a fresh [Queue.create]
   on every emit.  FIFO wake order is preserved: [Many] keeps the reversed
   cons order and un-reverses on emit. *)
type 'a waiters =
  | No_waiters
  | One of ('a -> unit)
  | Many of ('a -> unit) list  (* reversed registration order; length >= 2 *)

type 'a t = { mutable waiters : 'a waiters }

let create () = { waiters = No_waiters }

let wait t =
  Sim.await (fun resume ->
      match t.waiters with
      | No_waiters -> t.waiters <- One resume
      | One first -> t.waiters <- Many [ resume; first ]
      | Many ws -> t.waiters <- Many (resume :: ws))

(* Detach the waiter set before resuming anyone: waiters re-registered
   during the wakeups wait for the *next* emission, not this one. *)
let emit t v =
  match t.waiters with
  | No_waiters -> ()
  | One resume ->
    t.waiters <- No_waiters;
    resume v
  | Many ws ->
    t.waiters <- No_waiters;
    List.iter (fun resume -> resume v) (List.rev ws)
