(* E14 (ablation) — the OS scheduler in "much tighter loops".

   §4: the scheduler enforces software policies by starting and stopping
   hardware threads, and because that is cheap it can run far more often.
   Here the policy is a concurrency limit of 2 runnable request threads
   (e.g. a tenant quota) on a core, service times bimodal (CV² = 16, 2%
   of requests ~29x longer):

   - FCFS admission: admitted requests run to completion — a long request
     holds its slot and short ones queue behind it;
   - preemptive admission: every quantum the scheduler freezes the
     longest-running request with [stop] (tens of cycles, state stays in
     the hierarchy), re-queues it, and admits the head of the queue.

   Expected shape: preemption collapses the p99 slowdown by an order of
   magnitude for total scheduler overhead of well under 1% of capacity —
   preemption this cheap would cost an IPI + full context switch
   (~4-5 kcycles) per quantum in the conventional design. *)

module Server = Sl_dist.Server
module Sched_policy = Sl_dist.Sched_policy
module Params = Switchless.Params
module Tablefmt = Sl_util.Tablefmt

let p = Params.default

let cfg rate =
  {
    Server.params = p;
    seed = 17L;
    cores = 1;  (* unused by Sched_policy: the pool core is fixed *)
    rate_per_kcycle = rate;
    service = Sl_util.Dist.bimodal_with_cv2 ~mean:2000.0 ~cv2:16.0 ~p_long:0.02;
    count = 2500;
  }

let run b =
  let rates = [ 0.2; 0.4; 0.6; 0.8 ] in
  let rows =
    List.map
      (fun rate ->
        let fcfs = Sched_policy.run ~mode:Sched_policy.Fcfs (cfg rate) in
        let preempt =
          Sched_policy.run ~mode:(Sched_policy.Preemptive 5_000) (cfg rate)
        in
        ( rate,
          [
            Server.percentile fcfs.Server.slowdowns 0.99;
            Server.percentile preempt.Server.slowdowns 0.99;
            fcfs.Server.switch_overhead_cycles /. 1000.0;
            preempt.Server.switch_overhead_cycles /. 1000.0;
          ] ))
      rates
  in
  Printf.bprintf b "%s\n"
    (Tablefmt.render_series
       ~title:
         "E14: p99 slowdown, 2-runnable concurrency limit, CV^2=16 (5k-cycle quantum)"
       ~x_label:"req/kcycle"
       ~columns:
         [ "FCFS p99"; "preemptive p99"; "FCFS sched kcyc"; "preempt sched kcyc" ]
       rows)
