(* Tests for the lock-contention builder behind E-LOCK, `switchless-sim
   lock`, the lock-scaling microbench and the explorer's parking-lock
   scenarios: the quota rules, the builder's counter, and exact pins of
   the command line's default points, so a builder that reorders the
   loop or the placement fails. *)

module Lock = Sl_sync.Lock
module Histogram = Sl_util.Histogram
module Contention = Sl_os.Contention
module Watchdog = Sl_os.Watchdog

let each_kind f = List.iter (fun kind -> f (Lock.kind_name kind) kind) Lock.all_kinds

(* A shared quota is claimed under the lock, so each thread pays one
   final acquire that finds it spent. *)
let test_shared_quota () =
  each_kind (fun name kind ->
      let r =
        Contention.run ~cores:4 ~placement:Rr ~threads:16 ~quota:(Shared 600)
          ~section:(Increment 300) ~gap:0 kind
      in
      Alcotest.(check int) (name ^ " sections") 600 r.Contention.sections;
      Alcotest.(check int) (name ^ " acquires") 616 r.Contention.stats.Lock.acquires;
      Alcotest.(check int) (name ^ " counter") 600 r.Contention.counter;
      Alcotest.(check int) (name ^ " restarts") 0 r.Contention.restarts)

(* A per-thread quota is checked before acquiring: no exit acquire. *)
let test_each_quota () =
  each_kind (fun name kind ->
      let r =
        Contention.run ~cores:2 ~placement:Rr ~threads:6 ~quota:(Each 10)
          ~section:(Increment 300) ~gap:200 kind
      in
      Alcotest.(check int) (name ^ " sections") 60 r.Contention.sections;
      Alcotest.(check int) (name ^ " acquires") 60 r.Contention.stats.Lock.acquires;
      Alcotest.(check int) (name ^ " counter") 60 r.Contention.counter)

(* [switchless-sim lock]'s defaults: 16 threads, 4 cores, 2000 sections
   of 400 cycles. *)
let test_cli_pins () =
  List.iter
    (fun (kind, placement, elapsed, handoff) ->
      let name = Lock.kind_name kind in
      let r =
        Contention.run ~cores:4 ~placement ~threads:16 ~quota:(Shared 2000)
          ~section:(Exec 400) ~gap:0 kind
      in
      Alcotest.(check int) (name ^ " elapsed") elapsed r.Contention.elapsed;
      Alcotest.(check (float 0.05))
        (name ^ " handoff mean") handoff
        (Histogram.mean r.Contention.stats.Lock.handoff);
      Alcotest.(check int) (name ^ " no counter") 0 r.Contention.counter)
    [
      (Lock.Tas, Contention.Hot, 6_675_747, 136.8);
      (Lock.Mcs_mwait, Contention.Rr, 860_539, 29.0);
      (Lock.Park_mwait, Contention.Rr, 974_394, 25.0);
    ]

(* The horizon parks the clock: the world stops there with work left. *)
let test_horizon () =
  let r =
    Contention.run ~horizon:50_000 ~cores:4 ~placement:Rr ~threads:16
      ~quota:(Shared 2000) ~section:(Exec 400) ~gap:0 Lock.Park_mwait
  in
  Alcotest.(check int) "elapsed is the horizon" 50_000 r.Contention.elapsed;
  Alcotest.(check bool) "quota not spent" true (r.Contention.sections < 2000)

(* The watchdog sweeps while the contenders run and is retired by the
   last one to finish, so the world still drains. *)
let test_watchdog () =
  let r =
    Contention.run ~watchdog:true ~cores:2 ~placement:Rr ~threads:12
      ~quota:(Each 25) ~section:(Increment 400) ~gap:150 Lock.Park_mwait
  in
  Alcotest.(check int) "counter" 300 r.Contention.counter;
  match r.Contention.watchdog with
  | None -> Alcotest.fail "watchdog requested but not returned"
  | Some wd -> Alcotest.(check bool) "swept" true (Watchdog.sweeps wd > 0)

(* A world with no contender runs no section: refused, not reported as
   an empty run. *)
let test_no_contenders () =
  Alcotest.check_raises "threads 0"
    (Invalid_argument "Contention.run: threads must be at least 1") (fun () ->
      ignore
        (Contention.run ~cores:4 ~placement:Rr ~threads:0 ~quota:(Shared 2000)
           ~section:(Exec 400) ~gap:0 Lock.Park_mwait
          : Contention.result))

(* A quota of no section has nothing to measure: refused, not shown as
   "0 critical sections" at some cost per acquire. *)
let test_empty_quota () =
  List.iter
    (fun (name, quota) ->
      Alcotest.check_raises name
        (Invalid_argument "Contention.run: quota must be at least 1") (fun () ->
          ignore
            (Contention.run ~cores:4 ~placement:Rr ~threads:4 ~quota ~section:(Exec 400)
               ~gap:0 Lock.Park_mwait
              : Contention.result)))
    [
      ("shared 0", Contention.Shared 0);
      ("each 0", Contention.Each 0);
      ("each -3", Contention.Each (-3));
    ]

let () =
  Alcotest.run "contention"
    [
      ( "quota",
        [
          Alcotest.test_case "shared quota: one exit acquire per thread" `Quick
            test_shared_quota;
          Alcotest.test_case "per-thread quota: no exit acquire" `Quick
            test_each_quota;
          Alcotest.test_case "no contenders is refused" `Quick test_no_contenders;
          Alcotest.test_case "an empty quota is refused" `Quick test_empty_quota;
        ] );
      ( "pins",
        [
          Alcotest.test_case "switchless-sim lock defaults" `Quick test_cli_pins;
          Alcotest.test_case "horizon parks the clock" `Quick test_horizon;
          Alcotest.test_case "watchdog sweeps and retires" `Quick test_watchdog;
        ] );
    ]
