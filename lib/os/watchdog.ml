module Sim = Sl_engine.Sim
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Apic_timer = Sl_dev.Apic_timer

type t = {
  chip : Chip.t;
  timer : Apic_timer.t;
  wd : Chip.thread;
  stuck_after : int;
  mutable sweeps : int;
  mutable stopped : bool;
}

(* Re-store the current value of every address the stuck thread has armed.
   The write is value-preserving — the nudge cannot corrupt protocol state —
   but monitor delivery triggers on the store itself, so the parked thread
   wakes, re-checks its predicate, and recovers from a lost wakeup.  If the
   fault injector drops the nudge delivery too, a later sweep retries. *)
let nudge th target =
  match Chip.armed target with
  | [] -> ()
  | addrs ->
    Sim.count "watchdog.nudge";
    List.iter (fun addr -> Isa.store th addr (Isa.load th addr)) addrs

let sweep t th =
  t.sweeps <- t.sweeps + 1;
  let now = Sim.now () in
  let self = Chip.ptid t.wd in
  (* Chip bodies run as sim processes that carry their ptid. *)
  List.iter
    (fun { Sim.ptid; blocked_since; _ } ->
      if now - blocked_since >= t.stuck_after then
        match ptid with
        | Some p when p <> self -> (
          match Chip.find_thread t.chip ~ptid:p with
          | target ->
            if Chip.state target = Ptid.Waiting then nudge th target
          | exception Invalid_argument _ -> ())
        | Some _ | None -> ())
    (Sim.stuck (Chip.sim t.chip))

let create chip ~core ~ptid ?(period = 10_000) ?(stuck_after = 20_000) () =
  let timer =
    Apic_timer.create (Chip.sim chip) (Chip.params chip) (Chip.memory chip)
      ~period ()
  in
  let wd = Chip.add_thread chip ~core ~ptid ~mode:Ptid.Supervisor () in
  let t = { chip; timer; wd; stuck_after; sweeps = 0; stopped = false } in
  Chip.attach wd (fun th ->
      Isa.monitor th (Apic_timer.count_addr timer);
      while not t.stopped do
        let _ = Isa.mwait th in
        if not t.stopped then sweep t th
      done);
  t

let start t =
  Chip.boot t.wd;
  Apic_timer.start t.timer

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Apic_timer.stop t.timer;
    Chip.shutdown t.wd
  end

let sweeps t = t.sweeps
