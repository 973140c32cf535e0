module Sim = Sl_engine.Sim
module Mailbox = Sl_engine.Mailbox
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Memory = Switchless.Memory
module Ptid = Switchless.Ptid
module Tdt = Switchless.Tdt

type t = {
  server_ptid : int;
  req_addr : Memory.addr;
  resp_addr : Memory.addr;
  seq_addr : Memory.addr;
  token : unit Mailbox.t;  (* holds one token while the channel is free *)
  mutable served : int;
  mutable issued : int;
}

let self_vtid = 0

let create chip ~core ~server_ptid ?(mode = Ptid.Supervisor) ?(vector = false)
    ?on_request () =
  let memory = Chip.memory chip in
  let req_addr = Memory.alloc memory 1 in
  let resp_addr = Memory.alloc memory 1 in
  let seq_addr = Memory.alloc memory 1 in
  let server = Chip.add_thread chip ~core ~ptid:server_ptid ~mode ~vector () in
  let stop_vtid =
    match mode with
    | Ptid.Supervisor -> server_ptid  (* raw ptid addressing *)
    | Ptid.User ->
      (* A user-mode server may stop exactly itself. *)
      let table = Tdt.create () in
      Tdt.set table ~vtid:self_vtid ~ptid:server_ptid
        { Tdt.perms_none with Tdt.can_stop = true };
      Chip.set_tdt server table;
      self_vtid
  in
  let token = Mailbox.create () in
  Mailbox.send token ();
  let t =
    {
      server_ptid;
      req_addr;
      resp_addr;
      seq_addr;
      token;
      served = 0;
      issued = 0;
    }
  in
  let handle =
    match on_request with
    | Some f -> f
    | None -> fun th work -> Isa.exec th (Int64.to_int work)
  in
  (* The request carries a sequence number and the server serves only
     unseen sequences, making starts idempotent: a timed-out caller can
     safely re-ring the doorbell even if its original start was merely
     delayed, not lost. *)
  Chip.attach server (fun th ->
      let rec serve last =
        let seq = Isa.load th t.seq_addr in
        let last =
          if Int64.compare seq last > 0 then begin
            let work = Isa.load th t.req_addr in
            handle th work;
            t.served <- t.served + 1;
            Isa.store th t.resp_addr seq;
            seq
          end
          else last
        in
        Isa.stop th ~vtid:stop_vtid;
        serve last
      in
      serve 0L);
  t

let grant t ~client ~vtid =
  let table =
    match Chip.tdt client with
    | Some table -> table
    | None ->
      let table = Tdt.create () in
      Chip.set_tdt client table;
      table
  in
  Tdt.set table ~vtid ~ptid:t.server_ptid { Tdt.perms_none with Tdt.can_start = true }

(* Publish one request and ring the server's doorbell.  Returns the
   sequence number the response word must reach. *)
let issue t ~client ~start_vtid ~work =
  t.issued <- t.issued + 1;
  let seq = Int64.of_int t.issued in
  Isa.monitor client t.resp_addr;
  Isa.store client t.req_addr (Int64.of_int work);
  Isa.store client t.seq_addr seq;
  Isa.start client ~vtid:start_vtid;
  seq

let call t ~client ?via ~work () =
  Mailbox.recv t.token;
  match
    let start_vtid = match via with Some vtid -> vtid | None -> t.server_ptid in
    let seq = issue t ~client ~start_vtid ~work in
    (* A latched wakeup from an earlier caller's response is possible
       when clients share the channel; re-check the sequence word. *)
    let rec wait_response () =
      let _ = Isa.mwait client in
      if Int64.compare (Isa.load client t.resp_addr) seq < 0 then wait_response ()
    in
    wait_response ()
  with
  | () -> Mailbox.send t.token ()
  | exception e ->
    Mailbox.send t.token ();
    raise e

type call_error = [ `Lock_timeout | `Response_timeout ]

let pp_call_error ppf = function
  | `Lock_timeout -> Format.pp_print_string ppf "lock-timeout"
  | `Response_timeout -> Format.pp_print_string ppf "response-timeout"

let call_with_deadline t ~client ?via ?(max_retries = 3) ~timeout ~work () =
  if timeout <= 0 then
    invalid_arg "Hw_channel.call_with_deadline: timeout must be positive";
  (* The reservation wait is bounded too: a caller parked behind a caller
     whose server died must not inherit the hang. *)
  match Mailbox.recv_for t.token ~within:timeout with
  | None -> Error `Lock_timeout
  | Some () ->
    let result =
      let start_vtid = match via with Some vtid -> vtid | None -> t.server_ptid in
      let seq = issue t ~client ~start_vtid ~work in
      (* Absolute deadlines per attempt: a stale or spurious wake re-checks
         and keeps waiting without extending the attempt's budget.
         Timeouts back off exponentially; every retry re-rings the
         doorbell, which the server treats as idempotent. *)
      (* The response word is checked *before* each park: when the
         server's store landed but its monitor delivery was lost, no
         further write will ever come (the server skips served
         sequences), so parking first would sleep through every retry. *)
      let rec attempt n ~budget =
        let deadline = Sim.now () + budget in
        let rec wait () =
          if Int64.compare (Isa.load client t.resp_addr) seq >= 0 then Ok ()
          else
            match Isa.mwait_for client ~deadline with
            | Some _ -> wait ()  (* a wake: re-check whose response it is *)
            | None ->
              if Int64.compare (Isa.load client t.resp_addr) seq >= 0 then Ok ()
              else if n >= max_retries then Error `Response_timeout
              else begin
                Sim.count "chan.retry";
                Isa.start client ~vtid:start_vtid;
                attempt (n + 1) ~budget:(budget * 2)
              end
        in
        wait ()
      in
      attempt 0 ~budget:timeout
    in
    Mailbox.send t.token ();
    result

let served t = t.served
let server_ptid t = t.server_ptid
