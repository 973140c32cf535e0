module Sim = Sl_engine.Sim
module Params = Switchless.Params
module Chip = Switchless.Chip
module Isa = Switchless.Isa
module Ptid = Switchless.Ptid
module Nic = Sl_dev.Nic
module Apic_timer = Sl_dev.Apic_timer

type stats = {
  delivered : int;
  retransmissions : int;
  duplicates : int;
  acks_sent : int;
  elapsed_cycles : int;
  goodput_per_kcycle : float;
}

(* Cost of assembling and pushing one segment/ACK to the device. *)
let tx_cycles = 30

(* Per-segment receive processing. *)
let rx_cycles = 100

let run ?(seed = 1L) ?(loss = 0.0) ?(link_delay = 2000) ~params ~segments () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Netstack.run: loss must be in [0, 1)";
  if segments <= 0 then invalid_arg "Netstack.run: segments must be positive";
  (* Retransmission timeout: three round trips. *)
  let rto = 6 * link_delay in
  let sim = Sim.create () in
  let chip = Chip.create sim params ~cores:2 in
  let memory = Chip.memory chip in
  let rng = Sl_util.Rng.create seed in
  (* B's data RX ring and A's ACK RX ring. *)
  let data_ring = Nic.create sim params memory ~queue_depth:256 () in
  let ack_ring = Nic.create sim params memory ~queue_depth:256 () in
  (* The wire: one-way delay plus independent loss, each direction. *)
  let transmit ring ~seq =
    let dropped = Sl_util.Rng.float rng < loss in
    Sim.after 0 (fun () ->
        Sim.after link_delay (fun () -> if not dropped then Nic.arrive ~flow:seq ring))
  in
  let timer = Apic_timer.create sim params memory ~period:(rto / 2) () in
  let retransmissions = ref 0 in
  let duplicates = ref 0 in
  let acks_sent = ref 0 in
  let delivered = ref 0 in
  let finished_at = ref 0 in

  (* Sender: stop-and-wait, woken by ACKs or timer ticks alike. *)
  let sender = Chip.add_thread chip ~core:0 ~ptid:1 ~mode:Ptid.Supervisor () in
  Chip.attach sender (fun th ->
      Isa.monitor th (Nic.rx_tail_addr ack_ring);
      Isa.monitor th (Apic_timer.count_addr timer);
      let last_acked = ref 0 in
      let drain_acks () =
        let rec go () =
          match Nic.poll ack_ring with
          | Some ack ->
            if ack.Nic.flow > !last_acked then last_acked := ack.Nic.flow;
            go ()
          | None -> ()
        in
        go ()
      in
      for seq = 1 to segments do
        Isa.exec th tx_cycles;
        transmit data_ring ~seq;
        let last_tx = ref (Sim.now ()) in
        drain_acks ();
        while !last_acked < seq do
          let _ = Isa.mwait th in
          drain_acks ();
          if
            !last_acked < seq
            && Sim.now () - !last_tx >= rto
          then begin
            incr retransmissions;
            Isa.exec th tx_cycles;
            transmit data_ring ~seq;
            last_tx := Sim.now ()
          end
        done
      done;
      finished_at := Sim.now ();
      Apic_timer.stop timer);
  Chip.boot sender;

  (* Receiver: cumulative ACKs, re-ACKing duplicates so lost ACKs heal. *)
  let receiver = Chip.add_thread chip ~core:1 ~ptid:2 ~mode:Ptid.Supervisor () in
  Chip.attach receiver (fun th ->
      Isa.monitor th (Nic.rx_tail_addr data_ring);
      let expected = ref 1 in
      while !delivered < segments do
        (if Nic.pending data_ring = 0 then
           let _ = Isa.mwait th in
           ());
        let rec drain () =
          match Nic.poll data_ring with
          | Some seg ->
            Isa.exec th rx_cycles;
            if seg.Nic.flow = !expected then begin
              incr delivered;
              incr expected
            end
            else incr duplicates;
            (* Cumulative ACK of everything received in order so far. *)
            incr acks_sent;
            Isa.exec th tx_cycles;
            transmit ack_ring ~seq:(!expected - 1);
            drain ()
          | None -> ()
        in
        drain ()
      done);
  Chip.boot receiver;

  Apic_timer.start timer;
  Sim.run sim;
  let elapsed = !finished_at in
  {
    delivered = !delivered;
    retransmissions = !retransmissions;
    duplicates = !duplicates;
    acks_sent = !acks_sent;
    elapsed_cycles = elapsed;
    goodput_per_kcycle =
      (if elapsed > 0 then
         1000.0 *. float_of_int segments /. float_of_int elapsed
       else 0.0);
  }
