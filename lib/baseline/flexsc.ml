module Sim = Sl_engine.Sim
module Ivar = Sl_engine.Ivar
module Mailbox = Sl_engine.Mailbox
module Smt_core = Switchless.Smt_core

type 'a t = {
  entries : 'a Mailbox.t;
  mutable calls : int;
  mutable batches : int;
}

let worker_ptid = 777_777

let serve sim ?(batch_window = 500) ~core ~work ~complete () =
  let t = { entries = Mailbox.create (); calls = 0; batches = 0 } in
  let slot = Smt_core.add_slot core ~ptid:worker_ptid in
  let run_entry e =
    Smt_core.execute core ~slot ~kind:Smt_core.Useful (work e);
    complete e
  in
  Sim.spawn sim ~name:"flexsc-worker" ~daemon:true (fun () ->
      Smt_core.set_runnable core ~slot ~weight:1.0 true;
      let rec loop () =
        (* Sleep until something is posted, then let a batch accumulate. *)
        let first = Mailbox.recv t.entries in
        Sim.delay batch_window;
        t.batches <- t.batches + 1;
        let rec drain acc =
          match Mailbox.try_recv t.entries with
          | Some e -> drain (e :: acc)
          | None -> List.rev acc
        in
        List.iter run_entry (first :: drain []);
        loop ()
      in
      loop ());
  t

let post t e =
  t.calls <- t.calls + 1;
  Mailbox.send t.entries e

type call = { kernel_work : int; done_ : unit Ivar.t }

let create sim ?batch_window ~core () =
  serve sim ?batch_window ~core
    ~work:(fun c -> c.kernel_work)
    ~complete:(fun c -> Ivar.fill c.done_ ())
    ()

let call t ~kernel_work =
  let done_ = Ivar.create () in
  post t { kernel_work; done_ };
  Ivar.read done_

let calls t = t.calls
let batches t = t.batches
