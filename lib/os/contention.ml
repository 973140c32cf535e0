module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Memory = Switchless.Memory
module Smt_core = Switchless.Smt_core
module Lock = Sl_sync.Lock

type placement = Hot | Rr
type quota = Shared of int | Each of int
type section = Exec of int | Increment of int

type result = {
  elapsed : int;
  sections : int;
  counter : int;
  stats : Lock.stats;
  useful : float;
  poll : float;
  overhead : float;
  restarts : int;
  watchdog : Watchdog.t option;
}

let params = { Params.default with Params.monitor_capacity_per_core = 1_000_000 }

let run ?patience ?(watchdog = false) ?horizon ~cores ~placement ~threads ~quota
    ~section ~gap kind =
  if threads < 1 then invalid_arg "Contention.run: threads must be at least 1";
  (match quota with
   | Shared n | Each n -> if n < 1 then invalid_arg "Contention.run: quota must be at least 1");
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores in
  let lock = Lock.create ?patience chip kind in
  let wd =
    if watchdog then
      Some
        (Watchdog.create chip ~core:(cores - 1) ~ptid:(threads + 1) ~period:8_000
           ~stuck_after:12_000 ())
    else None
  in
  let critical, read_counter =
    match section with
    | Exec cs -> ((fun t -> Isa.exec t cs), fun () -> 0)
    | Increment hold ->
      let memory = Chip.memory chip in
      let addr = Memory.alloc memory 1 in
      ( (fun t ->
          let v = Isa.load t addr in
          Isa.exec t hold;
          Isa.store t addr (Int64.add v 1L)),
        fun () -> Int64.to_int (Memory.read memory addr) )
  in
  let total, per_thread =
    match quota with Shared n -> (n, max_int) | Each n -> (n * threads, n)
  in
  (* Progress lives outside the bodies, so a cold restart resumes it. *)
  let remaining = ref total in
  let progress = Array.make threads 0 in
  let lives = Array.make threads 0 in
  let finished = ref 0 in
  for i = 0 to threads - 1 do
    let core = match placement with Hot -> 0 | Rr -> i mod cores in
    let th = Chip.add_thread chip ~core ~ptid:(i + 1) ~mode:Ptid.User () in
    Chip.attach th (fun t ->
        lives.(i) <- lives.(i) + 1;
        let continue_ = ref true in
        while !continue_ && progress.(i) < per_thread do
          Lock.acquire lock t;
          if !remaining <= 0 then continue_ := false
          else begin
            decr remaining;
            critical t;
            progress.(i) <- progress.(i) + 1
          end;
          Lock.release lock t;
          if !continue_ && gap > 0 then Isa.exec t gap
        done;
        incr finished;
        if !finished = threads then Option.iter Watchdog.stop wd);
    Chip.boot th
  done;
  Option.iter Watchdog.start wd;
  Sim.run ?until:horizon sim;
  let sum kind =
    let acc = ref 0.0 in
    for c = 0 to cores - 1 do
      acc := !acc +. Smt_core.work_done (Chip.exec_core chip c) kind
    done;
    !acc
  in
  {
    elapsed = Sim.time sim;
    sections = total - !remaining;
    counter = read_counter ();
    stats = Lock.stats lock;
    useful = sum Smt_core.Useful;
    poll = sum Smt_core.Poll;
    overhead = sum Smt_core.Overhead;
    restarts = Array.fold_left (fun acc l -> acc + l - 1) 0 lives;
    watchdog = wd;
  }
