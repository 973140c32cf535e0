module Sim = Sl_engine.Sim

type request = { req_id : int; arrival : int; service_cycles : int }

(* A chain of events: a start event at the current tick, then one event
   per arrival, each scheduling the next.  Draws on [rng]: a gap, then at
   the arrival a demand, then the next gap. *)
let run sim rng ~arrivals ~service ~count ~sink =
  Sim.schedule sim ~at:(Sim.time sim) (fun () ->
      let next_gap = Arrivals.sampler arrivals rng in
      let req_id = ref 0 in
      let rec arrive () =
        let service_cycles = int_of_float (Sl_util.Dist.sample service rng) in
        let service_cycles =
          if service_cycles < 0 then 0 else service_cycles
        in
        let id = !req_id in
        req_id := id + 1;
        sink { req_id = id; arrival = Sim.time sim; service_cycles };
        if id + 1 < count then Sim.schedule sim ~at:(Sim.time sim + next_gap ()) arrive
      in
      if count > 0 then Sim.schedule sim ~at:(Sim.time sim + next_gap ()) arrive)

let utilization ~rate_per_kcycle ~mean_service ~servers =
  rate_per_kcycle /. 1000.0 *. mean_service /. servers
