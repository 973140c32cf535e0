module Sim = Sl_engine.Sim
module Dist = Sl_util.Dist
module Rng = Sl_util.Rng

type t = {
  count : int;
  mutable issued : int;
  mutable completed : int;
  mutable timed_out : int;
  mutable in_flight : int;
  lat : Latency.t;
}

let issued t = t.issued
let completed t = t.completed
let timed_out t = t.timed_out
let in_flight t = t.in_flight
let latency t = t.lat

(* A client's request in flight.  Its completion and its timeout's
   give-up each settle it only while [flying] still names the request
   they were made for: whichever comes second finds nothing to settle,
   and so does a completion that arrives once the client has moved on
   to its next request, at the give-up's own tick too. *)
type client = { mutable flying : int; mutable completed : bool; waiting : Sim.queue }

let no_request = -1

let settle c req_id ~completed =
  if c.flying = req_id then begin
    c.flying <- no_request;
    c.completed <- completed;
    ignore (Sim.wake_first c.waiting : bool)
  end

let client_loop t ~think ~service ~timeout ~submit crng =
  let c = { flying = no_request; completed = false; waiting = Sim.queue () } in
  let rec go () =
    if t.issued < t.count then begin
      let req_id = t.issued in
      t.issued <- t.issued + 1;
      let gap = int_of_float (Dist.sample think crng) in
      Sim.delay (if gap < 0 then 0 else gap);
      let s = int_of_float (Dist.sample service crng) in
      let service_cycles = if s < 0 then 0 else s in
      let arrival = Sim.now () in
      t.in_flight <- t.in_flight + 1;
      c.flying <- req_id;
      submit
        { Openloop.req_id; arrival; service_cycles }
        ~complete:(fun () -> settle c req_id ~completed:true);
      (* A completion inside [submit] has already settled the request. *)
      if c.flying = req_id then begin
        match timeout with
        | None -> Sim.park c.waiting
        | Some within when within <= 0 -> settle c req_id ~completed:false
        | Some within ->
          (* The give-up is an event at the current tick that schedules
             the give-up itself, as [Mailbox.recv_for]'s is. *)
          Sim.after 0 (fun () ->
              Sim.after within (fun () -> settle c req_id ~completed:false));
          Sim.park c.waiting
      end;
      t.in_flight <- t.in_flight - 1;
      if c.completed then begin
        t.completed <- t.completed + 1;
        Latency.record t.lat (Sim.now () - arrival)
      end
      else t.timed_out <- t.timed_out + 1;
      go ()
    end
  in
  go ()

let start ?timeout ?(slo = max_int) sim rng ~clients ~think ~service ~count
    ~submit =
  if clients <= 0 then invalid_arg "Closedloop.start: clients must be positive";
  if count < 0 then invalid_arg "Closedloop.start: count must be non-negative";
  let t =
    {
      count;
      issued = 0;
      completed = 0;
      timed_out = 0;
      in_flight = 0;
      lat = Latency.create ~slo ();
    }
  in
  for _ = 1 to clients do
    (* Each client draws from its own split stream, so think/service
       sequences do not depend on how the clients interleave. *)
    let crng = Rng.split rng in
    Sim.spawn sim (fun () ->
        client_loop t ~think ~service ~timeout ~submit crng)
  done;
  t
