module Sim = Sl_engine.Sim

type request = { req_id : int; arrival : int; service_cycles : int }

let run sim rng ~arrivals ~service ~count ~sink =
  Sim.spawn sim (fun () ->
      let next_gap = Arrivals.sampler arrivals rng in
      for req_id = 0 to count - 1 do
        Sim.delay (next_gap ());
        let service_cycles = int_of_float (Sl_util.Dist.sample service rng) in
        let service_cycles =
          if service_cycles < 0 then 0 else service_cycles
        in
        sink { req_id; arrival = Sim.now (); service_cycles }
      done)

let utilization ~rate_per_kcycle ~mean_service ~servers =
  rate_per_kcycle /. 1000.0 *. mean_service /. servers
