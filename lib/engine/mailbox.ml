(* Items wait in rings of slots, oldest at [head], with [None] in a
   vacant slot, so that a taken item is collectable at once; a ring's
   capacity is a power of two, and it allocates only when it grows. *)
type 'a ring = { mutable slots : 'a option array; mutable head : int; mutable len : int }

let ring () = { slots = [||]; head = 0; len = 0 }

let grow r =
  let cap = Array.length r.slots in
  let slots = Array.make (Int.max 4 (2 * cap)) None in
  for i = 0 to r.len - 1 do
    slots.(i) <- r.slots.((r.head + i) land (cap - 1))
  done;
  r.slots <- slots;
  r.head <- 0

let push r x =
  if r.len = Array.length r.slots then grow r;
  r.slots.((r.head + r.len) land (Array.length r.slots - 1)) <- x;
  r.len <- r.len + 1

(* The oldest item, or [None] when the ring is empty. *)
let take r =
  if r.len = 0 then None
  else begin
    let x = r.slots.(r.head) in
    r.slots.(r.head) <- None;
    r.head <- (r.head + 1) land (Array.length r.slots - 1);
    r.len <- r.len - 1;
    x
  end

(* A send that finds a receiver parked wakes the oldest and hands it
   the item through [handed]: woken receivers run in the order they were
   woken (their hops queue in their world in that order), so each takes
   the oldest handed item, and a receive that finds [items] empty never
   takes an item already handed. *)
type 'a t = { items : 'a ring; handed : 'a ring; receivers : Sim.queue }

let create () = { items = ring (); handed = ring (); receivers = Sim.queue () }

let hand t v = Sim.wake_first t.receivers && (push t.handed (Some v); true)

let send t v = if not (hand t v) then push t.items (Some v)

let recv t =
  match take t.items with
  | Some v -> v
  | None ->
    Sim.park t.receivers;
    Option.get (take t.handed)

(* A [recv_for]'s state, shared with its give-up. *)
type receive = Waiting | Received | Timed_out

(* The give-up acts only while the receiver is still parked in this
   receive: not once a send took it off the queue, and not on a later
   receive of the same process. *)
let give_up t receiver state =
  if !state = Waiting && Sim.unpark t.receivers receiver then state := Timed_out

let recv_for t ~within =
  match take t.items with
  | Some _ as item -> item
  | None when within <= 0 -> None
  | None ->
    (* The give-up is an event at the current tick, behind the events
       already due, that schedules the give-up itself. *)
    let receiver = Sim.self () and state = ref Waiting in
    Sim.after 0 (fun () -> Sim.after within (fun () -> give_up t receiver state));
    Sim.park t.receivers;
    if !state = Timed_out then None
    else begin
      state := Received;
      take t.handed
    end

let try_recv t = take t.items

let length t = t.items.len
