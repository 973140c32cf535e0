type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_cycles : int;
  miss_cycles : int;
}

let l1d_default =
  { size_bytes = 32 * 1024; ways = 8; line_bytes = 64; hit_cycles = 4; miss_cycles = 10 }

let l2_default =
  { size_bytes = 512 * 1024; ways = 8; line_bytes = 64; hit_cycles = 14; miss_cycles = 26 }

type line = { mutable tag : int; mutable valid : bool; mutable lru : int; mutable pinned : bool }

type t = {
  config : config;
  sets : line array array;
  num_sets : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create config =
  if config.size_bytes <= 0 || config.ways <= 0 || config.line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  let num_sets = config.size_bytes / (config.ways * config.line_bytes) in
  if num_sets = 0 then invalid_arg "Cache.create: fewer than one set";
  {
    config;
    sets =
      Array.init num_sets (fun _ ->
          Array.init config.ways (fun _ ->
              { tag = 0; valid = false; lru = 0; pinned = false }));
    num_sets;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let locate t addr =
  let line_addr = addr / t.config.line_bytes in
  let set_index = line_addr mod t.num_sets in
  let tag = line_addr / t.num_sets in
  (t.sets.(set_index), tag)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find_line set tag =
  let n = Array.length set in
  let rec scan i =
    if i >= n then None
    else if set.(i).valid && set.(i).tag = tag then Some set.(i)
    else scan (i + 1)
  in
  scan 0

(* Victim priority: any invalid line, else the LRU unpinned line, else (a
   fully pinned set) the LRU line overall. *)
let victim set =
  let pick_min_lru pred =
    Array.fold_left
      (fun acc line ->
        if not (pred line) then acc
        else
          match acc with
          | Some best when best.lru <= line.lru -> acc
          | _ -> Some line)
      None set
  in
  match pick_min_lru (fun line -> not line.valid) with
  | Some line -> line
  | None -> (
    match pick_min_lru (fun line -> not line.pinned) with
    | Some line -> line
    | None -> (
      match pick_min_lru (fun _ -> true) with
      | Some line -> line
      | None -> assert false))

let touch t ~count addr =
  let set, tag = locate t addr in
  match find_line set tag with
  | Some line ->
    line.lru <- tick t;
    if count then t.hits <- t.hits + 1;
    `Hit
  | None ->
    let v = victim set in
    v.tag <- tag;
    v.valid <- true;
    v.pinned <- false;
    v.lru <- tick t;
    if count then t.misses <- t.misses + 1;
    `Miss

let access t addr = touch t ~count:true addr

let access_cycles t addr =
  match access t addr with
  | `Hit -> t.config.hit_cycles
  | `Miss -> t.config.hit_cycles + t.config.miss_cycles

let pin t addr =
  ignore (touch t ~count:false addr);
  let set, tag = locate t addr in
  match find_line set tag with
  | Some line -> line.pinned <- true
  | None -> ()

let flush t =
  Array.iter
    (fun set -> Array.iter (fun line -> if not line.pinned then line.valid <- false) set)
    t.sets

let pollute t ~fraction rng =
  if fraction < 0.0 || fraction > 1.0 then invalid_arg "Cache.pollute: bad fraction";
  Array.iter
    (fun set ->
      Array.iter
        (fun line ->
          if line.valid && (not line.pinned) && Sl_util.Rng.float rng < fraction then
            line.valid <- false)
        set)
    t.sets

let resident t addr =
  let set, tag = locate t addr in
  find_line set tag <> None

let hits t = t.hits
let misses t = t.misses

let line_count t =
  Array.fold_left
    (fun acc set ->
      acc + Array.fold_left (fun a line -> if line.valid then a + 1 else a) 0 set)
    0 t.sets

let warm t ~start ~bytes =
  let lines = (bytes + t.config.line_bytes - 1) / t.config.line_bytes in
  for i = 0 to lines - 1 do
    ignore (touch t ~count:false (start + (i * t.config.line_bytes)))
  done

let miss_count_for_working_set t ~start ~bytes =
  let lines = (bytes + t.config.line_bytes - 1) / t.config.line_bytes in
  let missed = ref 0 in
  for i = 0 to lines - 1 do
    match access t (start + (i * t.config.line_bytes)) with
    | `Miss -> incr missed
    | `Hit -> ()
  done;
  !missed
