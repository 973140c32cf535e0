module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory

type remote = {
  chip : Chip.t;
  rtt : Sl_util.Dist.t;
  server_work : int;
  rng : Sl_util.Rng.t;
  mutable completed : int;
}

let create_remote chip ~rtt ~server_work ~rng =
  { chip; rtt; server_work; rng; completed = 0 }

type session = {
  remote : remote;
  req : Memory.addr;
  resp : Memory.addr;
  mutable seq : int;
}

let session remote =
  let memory = Chip.memory remote.chip in
  { remote; req = Memory.alloc memory 1; resp = Memory.alloc memory 1; seq = 0 }

let call s ~client =
  let r = s.remote in
  s.seq <- s.seq + 1;
  let seq = Int64.of_int s.seq in
  Isa.monitor client s.resp;
  (* Send: one doorbell store; the wire + remote service happen "out
     there" and the response lands as a DMA write. *)
  Isa.store client s.req seq;
  let delay =
    int_of_float (Sl_util.Dist.sample r.rtt r.rng) + r.server_work
  in
  let delay = if delay < 1 then 1 else delay in
  Sim.after 0 (fun () ->
      Sim.after delay (fun () ->
          r.completed <- r.completed + 1;
          Memory.write (Chip.memory r.chip) s.resp seq));
  let rec wait () =
    let _ = Isa.mwait client in
    if Int64.compare (Isa.load client s.resp) seq < 0 then wait ()
  in
  wait ()

let completed r = r.completed
