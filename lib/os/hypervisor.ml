module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Ptid = Switchless.Ptid
module Tdt = Switchless.Tdt
module Smt_core = Switchless.Smt_core
module Regstate = Switchless.Regstate
module Exception_desc = Switchless.Exception_desc
module Swsched = Sl_baseline.Swsched

let inkernel_exit guest params ~handle_work =
  Swsched.exec guest ~kind:Smt_core.Overhead
    params.Params.vmexit_entry_cycles;
  Swsched.exec guest ~kind:Smt_core.Useful handle_work;
  Swsched.exec guest ~kind:Smt_core.Overhead
    params.Params.vmexit_exit_cycles

module Isolated = struct
  type t = {
    chip : Chip.t;
    desc_base : Memory.addr;
    table : Tdt.t;
    mutable exits : int;
  }

  let create chip ~core ~hyp_ptid =
    let memory = Chip.memory chip in
    let desc_base = Memory.alloc memory Exception_desc.size_words in
    let table = Tdt.create () in
    let hyp = Chip.add_thread chip ~core ~ptid:hyp_ptid ~mode:Ptid.User () in
    Chip.set_tdt hyp table;
    let t = { chip; desc_base; table; exits = 0 } in
    Chip.attach hyp (fun th ->
        (* Parked on the descriptor between exits by design. *)
        Sim.set_daemon true;
        Isa.monitor th t.desc_base;
        let rec serve () =
          let _ = Isa.mwait th in
          let d = Exception_desc.read memory ~base:t.desc_base in
          (* The descriptor's info word carries the work demand. *)
          Isa.exec th (Int64.to_int d.Exception_desc.info);
          t.exits <- t.exits + 1;
          (* Restart the guest through our TDT (guest ptid is its vtid). *)
          Isa.start th ~vtid:d.Exception_desc.ptid;
          serve ()
        in
        serve ());
    Chip.boot hyp;
    t

  let install_guest t ~guest =
    Regstate.set (Chip.regs guest) Regstate.Exception_descriptor_ptr
      (Int64.of_int t.desc_base);
    (* Map the guest into the hypervisor's TDT under its own ptid. *)
    Tdt.set t.table ~vtid:(Chip.ptid guest) ~ptid:(Chip.ptid guest)
      { Tdt.perms_none with Tdt.can_start = true; can_stop = true }

  let vmexit guest ~handle_work =
    Isa.fault guest Exception_desc.Privileged_instruction ~info:(Int64.of_int handle_work)

  let exits t = t.exits
end

module Remote = struct
  (* One empty poll of the exit queue or the response line. *)
  let poll_gap = 20

  type t = {
    req_work : Memory.addr;
    req_seq : Memory.addr;
    resp_seq : Memory.addr;
    mutable guest : Chip.thread option;
    mutable issued : int;
    mutable exits : int;
  }

  (* The guest is known from its first exit; its body ending disables it. *)
  let guest_gone t =
    match t.guest with Some g -> Chip.state g = Ptid.Disabled | None -> false

  let create chip ~core ~hyp_ptid () =
    let memory = Chip.memory chip in
    let t =
      {
        req_work = Memory.alloc memory 1;
        req_seq = Memory.alloc memory 1;
        resp_seq = Memory.alloc memory 1;
        guest = None;
        issued = 0;
        exits = 0;
      }
    in
    let hyp = Chip.add_thread chip ~core ~ptid:hyp_ptid ~mode:Ptid.User () in
    Chip.attach hyp (fun th ->
        while not (guest_gone t) do
          let seen = Isa.load th t.req_seq in
          if Int64.to_int seen > t.exits then begin
            let work = Isa.load th t.req_work in
            Isa.exec th (Int64.to_int work);
            t.exits <- t.exits + 1;
            Isa.store th t.resp_seq (Int64.of_int t.exits)
          end
          else Isa.exec th ~kind:Smt_core.Poll poll_gap
        done);
    Chip.boot hyp;
    t

  let vmexit t ~guest ~handle_work =
    t.guest <- Some guest;
    t.issued <- t.issued + 1;
    let seq = Int64.of_int t.issued in
    Isa.store guest t.req_work (Int64.of_int handle_work);
    Isa.store guest t.req_seq seq;
    (* SplitX keeps the guest spinning on the response cache line. *)
    let rec spin () =
      if Int64.compare (Isa.load guest t.resp_seq) seq < 0 then begin
        Isa.exec guest ~kind:Smt_core.Poll poll_gap;
        spin ()
      end
    in
    spin ()

  let exits t = t.exits
end
