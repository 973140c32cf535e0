(* The dominant lifecycle is create -> (fill | one read -> fill), so no
   list is allocated until a second reader shows up (rare: broadcast
   activations).  A reader parks at a suspension whose registrar keeps
   its waker here, and finds the value in [Full] once woken.  Waiters
   wake in FIFO registration order either way — [Many] keeps the
   reversed cons order and un-reverses on fill. *)
type 'a state =
  | Empty
  | One of Sim.waker
  | Many of Sim.waker list  (* reversed registration order; length >= 2 *)
  | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty -> t.state <- Full v
  | One waker ->
    t.state <- Full v;
    Sim.wake waker
  | Many wakers ->
    t.state <- Full v;
    List.iter Sim.wake (List.rev wakers)

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty | One _ | Many _ ->
    fill t v;
    true

let peek t = match t.state with Full v -> Some v | Empty | One _ | Many _ -> None

let read t =
  (match t.state with
  | Full _ -> ()
  | Empty | One _ | Many _ ->
    Sim.suspend
      (Sim.suspension (fun waker ->
           match t.state with
           | Empty -> t.state <- One waker
           | One first -> t.state <- Many [ waker; first ]
           | Many wakers -> t.state <- Many (waker :: wakers)
           | Full _ ->
             (* Unreachable: nothing runs between the dispatch above and
                the registration. *)
             assert false)));
  match t.state with
  | Full v -> v
  | Empty | One _ | Many _ -> invalid_arg "Ivar.read: woken before the fill"
