(* R1 — chaos suite: §2 workloads under deterministic fault injection.

   A replay table over the fault-scenario registry (Sl_explore.Scenario):
   each row pins one fault plan against the registry workload whose
   wakeup path it attacks.  [Scenario.run] runs the workload under the
   full sanitizer set and checks its invariants (conservation,
   termination, ledger consistency, bounded tails); a row replays it
   twice and fails on a failed invariant or sanitizer finding, on any
   difference between the replays, or when one of the row's fault
   classes or recovery sites never fired (proof that the plan exercised
   the recovery path rather than dodging it).

   SWITCHLESS_FAULTS=<spec> replaces the table with two rows replaying the
   given plan against the chaos and closed-loop workloads — the hook the
   smoke-test alias in the root dune file uses to pin one fixed fault
   schedule. *)

module Fault = Sl_fault.Fault
module Scenario = Sl_explore.Scenario

type row = {
  name : string;
  scenario : string;  (** A [Scenario.all] entry. *)
  plan : Fault.plan;
  faults : string list;  (** Fault classes that must have fired. *)
  sites : string list;  (** Recovery sites that must have fired. *)
}

(* Plans are written as canonical spec strings — exactly what each row
   prints — so a row can be replayed standalone via SWITCHLESS_FAULTS. *)
let row ?(faults = []) ?(sites = []) name scenario spec =
  match Fault.parse_spec spec with
  | Ok plan -> { name; scenario; plan; faults; sites }
  | Error msg -> invalid_arg ("r1: " ^ name ^ ": " ^ msg)

let rows =
  let io = "io.hardened.r1" in
  [
    row "baseline" io "seed=101";
    row "nic.doorbell_drop" io "seed=102,nic.doorbell_drop=0.08"
      ~faults:[ "nic.doorbell_drop" ];
    row "nic.doorbell_dup" io "seed=103,nic.doorbell_dup=0.08"
      ~faults:[ "nic.doorbell_dup" ];
    row "nic.dma_drop" io "seed=104,nic.dma_drop=0.05" ~faults:[ "nic.dma_drop" ];
    row "mwait.lost" io "seed=105,mwait.lost=0.15" ~faults:[ "mwait.lost" ];
    row "mwait.spurious" io "seed=106,mwait.spurious=0.2"
      ~faults:[ "mwait.spurious" ];
    row "store.corruption" io "seed=107,store.ecc=0.1,store.silent=0.05"
      ~faults:[ "store.ecc"; "store.silent" ];
    row "start.delay" "channel.deadline" "seed=108,mwait.lost=0.1,start.delay=0.25"
      ~faults:[ "start.delay"; "mwait.lost" ];
    row "nvme.stall" "nvme.stall" "seed=109,nvme.stall=0.1" ~faults:[ "nvme.stall" ];
    row "ipi.drop" "ipi.drop" "seed=111,ipi.drop=0.1" ~faults:[ "ipi.drop" ];
    row "watchdog.rescue" "watchdog.rescue"
      "seed=112,nic.doorbell_drop=0.3,mwait.lost=0.5" ~faults:[ "mwait.lost" ]
      ~sites:[ "watchdog.nudge" ];
    row "closedloop.chaos" "pool.closed.r1"
      "seed=113,mwait.lost=0.05,mwait.spurious=0.05" ~faults:[ "mwait.lost" ];
    (* Pool workers crash-stop at the wake boundary (doorbell consumed,
       request unprocessed) and mid-park, and cold-restart through their
       boot path, which re-arms the monitor and requeues the orphan. *)
    row "crash.restart" "pool.closed.r1" "seed=114,crash.park=0.05,crash.wake=0.12"
      ~faults:[ "crash.wake" ]
      ~sites:[ "server.crash_restart"; "server.crash_requeue" ];
    (* A crash storm confined to the boot window: the hardened I/O
       thread dies repeatedly while warming up, then must finish unaided. *)
    row "crash.storm" io
      "seed=115,crash.park=0.4,crash.wake=0.1,crash.boot_window=150000"
      ~faults:[ "crash.park" ] ~sites:[ "io.crash_restart" ];
    row "lock.storm" "lock.watchdog.r1"
      "seed=116,mwait.lost=0.25,mwait.spurious=0.1,crash.park=0.15,crash.wake=0.1"
      ~faults:[ "mwait.lost"; "crash.park"; "crash.wake" ]
      ~sites:[ "sync.rearm" ];
    row "chaos" "io.watchdog.r1"
      "seed=110,nic.doorbell_drop=0.05,nic.doorbell_dup=0.05,nic.dma_drop=0.02,\
       mwait.lost=0.1,mwait.spurious=0.1,store.ecc=0.05,store.silent=0.02"
      ~faults:[ "nic.doorbell_drop"; "mwait.lost" ];
  ]

let pairs l = String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n) l)

(* Replay [r] twice, check what the row promises, print one JSON line. *)
let replay b r =
  let fail msg = failwith (Printf.sprintf "r1/%s: %s" r.name msg) in
  let sc =
    match Scenario.find r.scenario with
    | Some sc -> sc
    | None -> fail ("no scenario " ^ r.scenario)
  in
  let o = sc.Scenario.run r.plan in
  if sc.Scenario.run r.plan <> o then
    fail "replay diverged: same plan, different outcome";
  if not o.Scenario.pass then begin
    List.iter
      (Format.kasprintf (Buffer.add_string b) "%a@." Sl_analysis.Report.pp)
      o.Scenario.findings;
    fail o.Scenario.reason
  end;
  let must_fire what fired =
    List.iter (fun k ->
        if not (List.mem_assoc k fired) then
          fail (Printf.sprintf "%s %s never fired" what k))
  in
  must_fire "fault class" o.Scenario.injected r.faults;
  must_fire "recovery site" o.Scenario.recovery r.sites;
  Printf.bprintf b
    "{\"scenario\":%S,\"spec\":%S,\"replay\":\"identical\",\"injected\":{%s},\"recovery\":{%s},%s}\n"
    r.name
    (Sl_util.Json.escape (Fault.to_spec r.plan))
    (pairs o.Scenario.injected) (pairs o.Scenario.recovery)
    (pairs o.Scenario.summary)

let run b =
  List.iter (replay b)
    (match Sys.getenv_opt "SWITCHLESS_FAULTS" with
    | Some spec ->
      [ row "env-chaos" "io.watchdog.r1" spec; row "env-closedloop" "pool.closed.r1" spec ]
    | None -> rows);
  Printf.bprintf b
    "r1: all scenarios survived: no findings, no deadlocks, no lost requests, replays identical\n\n"
