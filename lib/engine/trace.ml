type 'a t = {
  capacity : int;
  ring : (Sim.Time.t * 'a) option array;
  mutable next : int;  (* write cursor *)
  mutable total : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; total = 0 }

let record t sim event =
  t.ring.(t.next) <- Some (Sim.time sim, event);
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let events t =
  let collected = ref [] in
  (* Read backwards from the newest entry. *)
  for i = 1 to t.capacity do
    let idx = (t.next - i + (2 * t.capacity)) mod t.capacity in
    match t.ring.(idx) with
    | Some event -> collected := event :: !collected
    | None -> ()
  done;
  !collected

let length t = min t.total t.capacity

let total_recorded t = t.total

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0
