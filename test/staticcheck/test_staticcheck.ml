(* Acceptance tests for the typed static analyzer: load the fixture
   library's .cmt artifacts (one seeded violation per rule, one clean
   counterpart each) and assert exactly which findings every rule
   produces — rule name, enclosing binding, and nothing else. *)

module Sc = Sl_staticcheck

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let units = lazy (Sc.Cmt_load.load_roots [ "fixtures" ])

let unit_for basename =
  let units = Lazy.force units in
  match
    List.find_opt
      (fun u -> Filename.basename u.Sc.Cmt_load.source = basename)
      units
  with
  | Some u -> u
  | None ->
    Alcotest.failf "fixture %s not found among %d loaded cmts" basename
      (List.length units)

(* (rule, enclosing binding) pairs, deterministic order, of [check]
   over the unit's bindings as the driver lists them. *)
let findings check basename =
  let u = unit_for basename in
  check (Sc.Binding.of_structure ~file:u.Sc.Cmt_load.source u.Sc.Cmt_load.structure)
  |> List.sort_uniq Sc.Site.compare
  |> List.map (fun s -> (s.Sc.Site.rule, s.Sc.Site.ident))

(* A rule that reads one binding at a time. *)
let each = List.concat_map

let pairs = Alcotest.(list (pair string string))

(* --- protocol ------------------------------------------------------------- *)

let test_protocol_flags_seeded_races () =
  Alcotest.check pairs "both seeded violations, nothing else"
    [
      ("register-before-arm", "boot_race_pool");
      ("park-before-arm", "park_unarmed");
      ("lock-arm-before-publish", "mcs_join_unarmed");
    ]
    (findings Sc.Protocol.check "protocol_bad.ml")

let test_protocol_silent_on_fixed_shapes () =
  Alcotest.check pairs "armed publish, summarized arm, recv re-queue" []
    (findings Sc.Protocol.check "protocol_good.ml")

let test_protocol_flags_stepped_waits () =
  Alcotest.check pairs "a stepped wait that arms after its publish"
    [
      ("lock-arm-before-publish", "mcs_join_late_arm");
      ("lock-arm-before-publish", "mcs_join_late_arm_direct");
    ]
    (findings Sc.Protocol.check "protocol_stepped_bad.ml")

let test_protocol_silent_on_stepped_shapes () =
  Alcotest.check pairs "armed publish, ticket draw, no wait, deferred wait" []
    (findings Sc.Protocol.check "protocol_stepped_good.ml")

let test_protocol_flags_late_conditional_arms () =
  Alcotest.check pairs "a conditional arm after the publish, helper and inline"
    [
      ("lock-arm-before-publish", "mcs_join_late_helper");
      ("lock-arm-before-publish", "mcs_join_late_inline");
    ]
    (findings Sc.Protocol.check "protocol_cond_bad.ml")

let test_protocol_silent_on_conditional_arms () =
  Alcotest.check pairs "conditional arm in a helper or inline, let rec group" []
    (findings Sc.Protocol.check "protocol_cond_good.ml")

(* --- domain safety -------------------------------------------------------- *)

let test_domain_safety_flags_mutable_toplevel () =
  Alcotest.check pairs "every unsynchronised cell"
    [
      ("domain-safety", "hit_counter");
      ("domain-safety", "cache");
      ("domain-safety", "scratch");
      ("domain-safety", "knobs");
    ]
    (findings (each Sc.Domain_safety.check) "domain_bad.ml")

let test_domain_safety_silent_on_blessed () =
  Alcotest.check pairs "Atomic, DLS, functions, immutables" []
    (findings (each Sc.Domain_safety.check) "domain_good.ml")

(* --- purity --------------------------------------------------------------- *)

let purity = each Sc.Purity.check

let test_purity_flags_resolved_idents () =
  Alcotest.check pairs "alias-resolved determinism, print, blanket catch"
    [
      ("determinism", "seed_entropy");
      ("determinism", "cpu_now");
      ("no-print", "shout");
      ("no-blanket-catch", "swallow");
    ]
    (findings purity "purity_bad.ml")

let test_purity_silent_on_strings_and_named () =
  Alcotest.check pairs "comments, strings, formatters, named handlers" []
    (findings purity "purity_good.ml")

let test_hashtbl_order_flags_traversals () =
  Alcotest.check pairs "unsorted traversals, through an alias too"
    [
      ("hashtbl-order", "keys");
      ("hashtbl-order", "render");
      ("hashtbl-order", "first");
      ("hashtbl-order", "sorted_later");
    ]
    (findings purity "hashtbl_order_bad.ml")

let test_hashtbl_order_silent_on_sorted () =
  Alcotest.check pairs "sort, pipe into sort, sort @@, strings" []
    (findings purity "hashtbl_order_good.ml")

let test_poly_compare_flags_immediate_types () =
  Alcotest.check pairs "called, passed, aliased; int, char, constant variant"
    [
      ("poly-compare", "clamp");
      ("poly-compare", "grow");
      ("poly-compare", "sort_ints");
      ("poly-compare", "latest");
      ("poly-compare", "order");
      ("poly-compare", "smallest");
    ]
    (findings purity "poly_compare_bad.ml")

let test_poly_compare_silent_elsewhere () =
  Alcotest.check pairs "Int's own, float, string, generic, abstract, local" []
    (findings purity "poly_compare_good.ml")

(* --- missing mli ---------------------------------------------------------- *)

let mli_findings basename =
  Sc.Staticcheck.missing_mli (unit_for basename)
  |> List.map (fun s -> (s.Sc.Site.rule, s.Sc.Site.ident))

let test_missing_mli_flagged () =
  Alcotest.check pairs "unit without an interface"
    [ ("missing-mli", "-") ]
    (mli_findings "mli_bad.ml")

let test_missing_mli_silent_with_interface () =
  Alcotest.check pairs "unit with an interface" [] (mli_findings "mli_good.ml")

(* --- zero alloc ----------------------------------------------------------- *)

let test_zero_alloc_flags_each_class () =
  Alcotest.check pairs "tuple, closure, constructor, partial application"
    [
      ("zero-alloc", "boxed_pair");
      ("zero-alloc", "closure_inside");
      ("zero-alloc", "some_box");
      ("zero-alloc", "partial");
    ]
    (findings (each Sc.Zero_alloc.check) "zeroalloc_bad.ml")

let test_zero_alloc_silent_on_clean_and_unannotated () =
  Alcotest.check pairs "int ops pass; unannotated allocations ignored" []
    (findings (each Sc.Zero_alloc.check) "zeroalloc_good.ml")

(* --- spath ---------------------------------------------------------------- *)

let test_spath_matching () =
  let p name = Path.Pident (Ident.create_local name) in
  let dot base field = Path.Pdot (base, field) in
  check_bool "dune-mangled unit demangles" true
    (Sc.Spath.matches "Sim.now" (dot (p "Sl_engine__Sim") "now"));
  check_bool "stdlib prefix dropped" true
    (Sc.Spath.matches "print_endline" (dot (p "Stdlib") "print_endline"));
  check_bool "suffix on component boundary only" false
    (Sc.Spath.matches "Isa.mwait" (dot (p "Isa") "mwait_table"));
  check_bool "longer suffix still matches" true
    (Sc.Spath.matches "Isa.mwait" (dot (dot (p "Switchless") "Isa") "mwait"));
  Alcotest.(check string)
    "normalized name" "Isa.mwait"
    (Sc.Spath.name (dot (p "Switchless__Isa") "mwait"))

(* --- allowlist ------------------------------------------------------------ *)

let with_allow_file content f =
  let path = Filename.temp_file "allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let site ~rule ~file ~ident = Sc.Site.make ~rule ~file ~line:1 ~ident "m"

let test_allowlist_matching () =
  with_allow_file
    "# header comment\n\
     park-before-arm lib/os/io_path.ml poll_loop deliberate busy-poll design\n"
    (fun path ->
      let t = Sc.Allowlist.load path in
      check_bool "suffix match on / boundary" true
        (Sc.Allowlist.permits t
           (site ~rule:"park-before-arm" ~file:"lib/os/io_path.ml"
              ~ident:"poll_loop"));
      check_bool "different binding rejected" false
        (Sc.Allowlist.permits t
           (site ~rule:"park-before-arm" ~file:"lib/os/io_path.ml"
              ~ident:"other"));
      check_bool "non-boundary suffix rejected" false
        (Sc.Allowlist.permits t
           (site ~rule:"park-before-arm" ~file:"lib/os/xio_path.ml"
              ~ident:"poll_loop"));
      check_int "no stale entries after a match" 0
        (List.length (Sc.Allowlist.unused t)))

let test_allowlist_stale_and_malformed () =
  with_allow_file "no-print lib/gone.ml nobody justification here\n"
    (fun path ->
      let t = Sc.Allowlist.load path in
      check_int "unmatched entry reported stale" 1
        (List.length (Sc.Allowlist.unused t)));
  with_allow_file "only-two fields\n" (fun path ->
      check_bool "malformed line raises" true
        (match Sc.Allowlist.load path with
        | _ -> false
        | exception Failure _ -> true));
  let missing = Sc.Allowlist.load "/nonexistent/allow" in
  check_int "missing file is empty" 0 (List.length (Sc.Allowlist.unused missing))

(* --- report plumbing ------------------------------------------------------ *)

let test_site_to_report () =
  let s =
    site ~rule:"domain-safety" ~file:"lib/x/y.ml" ~ident:"cache"
  in
  let r = Sc.Site.to_report s in
  Alcotest.(check string) "rule" "domain-safety" r.Sl_analysis.Report.rule;
  Alcotest.(check string)
    "stable key" "domain-safety:lib/x/y.ml:cache" r.Sl_analysis.Report.key;
  check_bool "summary counts by rule" true
    (Sl_analysis.Report.summary [ r ] <> "no findings")

let () =
  Alcotest.run "staticcheck"
    [
      ( "protocol",
        [
          Alcotest.test_case "seeded races flagged" `Quick
            test_protocol_flags_seeded_races;
          Alcotest.test_case "fixed shapes silent" `Quick
            test_protocol_silent_on_fixed_shapes;
          Alcotest.test_case "stepped waits flagged" `Quick
            test_protocol_flags_stepped_waits;
          Alcotest.test_case "stepped shapes silent" `Quick
            test_protocol_silent_on_stepped_shapes;
          Alcotest.test_case "late conditional arms flagged" `Quick
            test_protocol_flags_late_conditional_arms;
          Alcotest.test_case "conditional arms and rec groups silent" `Quick
            test_protocol_silent_on_conditional_arms;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "mutable toplevel flagged" `Quick
            test_domain_safety_flags_mutable_toplevel;
          Alcotest.test_case "blessed forms silent" `Quick
            test_domain_safety_silent_on_blessed;
        ] );
      ( "purity",
        [
          Alcotest.test_case "resolved idents flagged" `Quick
            test_purity_flags_resolved_idents;
          Alcotest.test_case "strings and named handlers silent" `Quick
            test_purity_silent_on_strings_and_named;
          Alcotest.test_case "hashtbl traversals flagged" `Quick
            test_hashtbl_order_flags_traversals;
          Alcotest.test_case "sorted traversals silent" `Quick
            test_hashtbl_order_silent_on_sorted;
          Alcotest.test_case "immediate-type orderings flagged" `Quick
            test_poly_compare_flags_immediate_types;
          Alcotest.test_case "other orderings silent" `Quick
            test_poly_compare_silent_elsewhere;
        ] );
      ( "missing-mli",
        [
          Alcotest.test_case "unit without interface flagged" `Quick
            test_missing_mli_flagged;
          Alcotest.test_case "unit with interface silent" `Quick
            test_missing_mli_silent_with_interface;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "each allocation class flagged" `Quick
            test_zero_alloc_flags_each_class;
          Alcotest.test_case "clean and unannotated silent" `Quick
            test_zero_alloc_silent_on_clean_and_unannotated;
        ] );
      ( "spath",
        [ Alcotest.test_case "suffix matching" `Quick test_spath_matching ] );
      ( "allowlist",
        [
          Alcotest.test_case "matching and use-tracking" `Quick
            test_allowlist_matching;
          Alcotest.test_case "stale and malformed" `Quick
            test_allowlist_stale_and_malformed;
        ] );
      ( "report",
        [ Alcotest.test_case "site to report" `Quick test_site_to_report ] );
    ]
