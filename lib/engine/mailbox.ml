type 'a receiver = { deliver : 'a -> unit; mutable cancelled : bool }

type 'a t = { items : 'a Queue.t; receivers : 'a receiver Queue.t }

let create () = { items = Queue.create (); receivers = Queue.create () }

let rec send t v =
  match Queue.take_opt t.receivers with
  | Some r -> if r.cancelled then send t v else r.deliver v
  | None -> Queue.push v t.items

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
    Sim.await (fun resume ->
        Queue.push { deliver = resume; cancelled = false } t.receivers)

let recv_for t ~within =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None when within <= 0 -> None
  | None ->
    (* One-shot race between the sender and the timeout: whoever fills
       [decided] first wins.  Events are atomic, so a delivered receiver
       was not cancelled, and [send] skips cancelled receivers — a
       message can never land in a dead waiter. *)
    let decided = Ivar.create () in
    let r =
      { deliver =
          (fun v ->
            if not (Ivar.try_fill decided (Some v)) then
              (* Defensive: never lose a message even if the decision was
                 somehow already taken. *)
              Queue.push v t.items);
        cancelled = false }
    in
    Sim.fork (fun () ->
        Sim.delay within;
        if Ivar.try_fill decided None then r.cancelled <- true);
    Queue.push r t.receivers;
    Ivar.read decided

let try_recv t = Queue.take_opt t.items

let length t = Queue.length t.items
