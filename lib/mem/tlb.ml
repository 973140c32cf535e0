type config = { entries : int; page_bytes : int; hit_cycles : int; miss_cycles : int }

let default = { entries = 64; page_bytes = 4096; hit_cycles = 1; miss_cycles = 30 }

type entry = { mutable key : int * int; mutable valid : bool; mutable lru : int }

type t = {
  config : config;
  slots : entry array;
  mutable clock : int;
}

let create config =
  if config.entries <= 0 || config.page_bytes <= 0 then
    invalid_arg "Tlb.create: non-positive geometry";
  {
    config;
    slots = Array.init config.entries (fun _ -> { key = (0, 0); valid = false; lru = 0 });
    clock = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let lookup t key =
  Array.fold_left
    (fun acc slot -> if slot.valid && slot.key = key then Some slot else acc)
    None t.slots

let lru_slot t =
  let best = ref t.slots.(0) in
  Array.iter
    (fun slot ->
      if (not slot.valid) && !best.valid then best := slot
      else if slot.valid = !best.valid && slot.lru < !best.lru then best := slot)
    t.slots;
  !best

let access t ~asid addr =
  let key = (asid, addr / t.config.page_bytes) in
  match lookup t key with
  | Some slot ->
    slot.lru <- tick t;
    `Hit
  | None ->
    let slot = lru_slot t in
    slot.key <- key;
    slot.valid <- true;
    slot.lru <- tick t;
    `Miss

let access_cycles t ~asid addr =
  match access t ~asid addr with
  | `Hit -> t.config.hit_cycles
  | `Miss -> t.config.hit_cycles + t.config.miss_cycles

let flush t = Array.iter (fun slot -> slot.valid <- false) t.slots

let warm t ~asid ~start ~bytes =
  let pages = (bytes + t.config.page_bytes - 1) / t.config.page_bytes in
  for i = 0 to pages - 1 do
    ignore (access t ~asid (start + (i * t.config.page_bytes)))
  done
