(* E15 (substrate demo) — the interrupt-free network stack service.

   The §2 microkernel story names the network stack as a prime service to
   host on hardware threads.  This experiment runs the reliable-transport
   substrate (stop-and-wait, cumulative ACKs) across lossy 2,000-cycle
   links.  The sender hardware thread monitors its ACK ring and the APIC
   tick counter simultaneously — retransmission timers with no interrupt,
   no timer wheel and no polling.

   Expected shape: goodput ≈ 1/RTT at zero loss, degrading with loss as
   timeouts (6x link delay) pace recovery; exactly-once delivery
   throughout. *)

module Netstack = Sl_os.Netstack
module Params = Switchless.Params
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

let run b =
  let losses = [ 0.0; 0.05; 0.1; 0.2; 0.3 ] in
  let rows =
    List.map
      (fun loss ->
        let s = Netstack.run ~seed:13L ~loss ~params:p ~segments:300 () in
        [
          Tablefmt.Float (100.0 *. loss);
          Tablefmt.Int s.Netstack.delivered;
          Tablefmt.Int s.Netstack.retransmissions;
          Tablefmt.Int s.Netstack.duplicates;
          Tablefmt.Float s.Netstack.goodput_per_kcycle;
          Tablefmt.Float
            (float_of_int s.Netstack.elapsed_cycles /. 300.0);
        ])
      losses
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render
       ~title:
         "E15: reliable transport on hw threads (2k-cycle links, stop-and-wait)"
       ~header:
         [ "loss %"; "delivered"; "retx"; "dups"; "goodput/kcyc"; "cyc/segment" ]
       rows);
  Buffer.add_string b
    "All timers are monitor wakeups on the APIC tick counter; the session\n\
     takes zero interrupts and burns zero polling cycles.\n\n"
