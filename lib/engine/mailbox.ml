(* A blocked receiver waits on its own ivar.  A timed-out [recv_for]
   fills its ivar with [None], so [send] skips it: a message can never
   land in a dead waiter. *)
type 'a t = { items : 'a Queue.t; receivers : 'a option Ivar.t Queue.t }

let create () = { items = Queue.create (); receivers = Queue.create () }

let rec send t v =
  match Queue.take_opt t.receivers with
  | Some r -> if not (Ivar.try_fill r (Some v)) then send t v
  | None -> Queue.push v t.items

let wait t =
  let r = Ivar.create () in
  Queue.push r t.receivers;
  r

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Option.get (Ivar.read (wait t)) (* no timeout fills it [None] *)

let recv_for t ~within =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None when within <= 0 -> None
  | None ->
    (* One-shot race between the sender and the timeout: whoever fills
       the receiver's ivar first wins. *)
    let r = wait t in
    Sim.fork (fun () ->
        Sim.delay within;
        ignore (Ivar.try_fill r None : bool));
    Ivar.read r

let try_recv t = Queue.take_opt t.items

let length t = Queue.length t.items
