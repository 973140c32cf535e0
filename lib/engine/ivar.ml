(* Readers park on the ivar's wait queue and find the value in [value]
   once woken; [fill] wakes them in the order they began to read. *)
type 'a t = { mutable value : 'a option; readers : Sim.queue }

let create () = { value = None; readers = Sim.queue () }

let fill t v =
  match t.value with
  | Some _ -> invalid_arg "Ivar.fill: already full"
  | None ->
    t.value <- Some v;
    Sim.wake_all t.readers

let try_fill t v =
  match t.value with
  | Some _ -> false
  | None ->
    fill t v;
    true

let peek t = t.value

let read t =
  (match t.value with Some _ -> () | None -> Sim.park t.readers);
  match t.value with
  | Some v -> v
  | None -> invalid_arg "Ivar.read: woken before the fill"
