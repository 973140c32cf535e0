(* The dominant lifecycle is create -> (fill | one read -> fill): every
   simulated instruction's completion is an ivar, so the representation
   is tuned to allocate nothing beyond the ivar cell itself until a
   second reader shows up (rare: broadcast completions).  Waiters resume
   in FIFO registration order either way — [Many] keeps the reversed
   cons order and un-reverses on fill. *)
type 'a state =
  | Empty
  | One of ('a -> unit)
  | Many of ('a -> unit) list  (* reversed registration order; length >= 2 *)
  | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty -> t.state <- Full v
  | One resume ->
    t.state <- Full v;
    resume v
  | Many waiters ->
    t.state <- Full v;
    List.iter (fun resume -> resume v) (List.rev waiters)

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty | One _ | Many _ ->
    fill t v;
    true

let peek t = match t.state with Full v -> Some v | Empty | One _ | Many _ -> None

let read t =
  match t.state with
  | Full v -> v
  | Empty | One _ | Many _ ->
    Sim.await (fun resume ->
        match t.state with
        | Empty -> t.state <- One resume
        | One first -> t.state <- Many [ resume; first ]
        | Many waiters -> t.state <- Many (resume :: waiters)
        | Full _ ->
          (* Unreachable: nothing runs between the dispatch above and
             the await registration. *)
          assert false)
