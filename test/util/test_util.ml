(* Tests for RNG, distributions, histograms, Welford, table rendering. *)

module Rng = Sl_util.Rng
module Dist = Sl_util.Dist
module Histogram = Sl_util.Histogram
module Welford = Sl_util.Welford
module Tablefmt = Sl_util.Tablefmt
module Json = Sl_util.Json
module Parallel = Sl_util.Parallel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 1L and b = Rng.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  check_bool "different seeds diverge" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_float_range () =
  let rng = Rng.create 99L in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    check_bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    check_bool "in [0,7)" true (v >= 0 && v < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 0L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let a = Rng.next_int64 parent and b = Rng.next_int64 child in
  check_bool "parent and child differ" true (a <> b)

let test_rng_copy () =
  let a = Rng.create 11L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copies agree" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_uniformity_rough () =
  (* Chi-square-ish sanity: 10 buckets, 100k draws, each within 20% of mean. *)
  let rng = Rng.create 123L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "roughly uniform" true
        (float_of_int c > 0.8 *. 10_000.0 && float_of_int c < 1.2 *. 10_000.0))
    buckets

(* SplitMix64's outputs as unsigned decimals, the form its reference
   implementation prints. *)
let draws rng n = List.init n (fun _ -> Printf.sprintf "%Lu" (Rng.next_int64 rng))

(* The reference stream of Steele, Lea & Flood's SplitMix64, which any
   change to the state's representation must reproduce bit for bit. *)
let test_rng_published_stream () =
  Alcotest.(check (list string))
    "seed 1234567"
    [
      "6457827717110365317";
      "3203168211198807973";
      "9817491932198370423";
      "4593380528125082431";
      "16408922859458223821";
    ]
    (draws (Rng.create 1234567L) 5);
  Alcotest.(check (list string))
    "seed 0"
    [ "16294208416658607535"; "7960286522194355700"; "487617019471545679" ]
    (draws (Rng.create 0L) 3)

(* A split draws one output from its parent and seeds the child with
   that output mixed again. *)
let test_rng_split_stream () =
  let parent = Rng.create 1234567L in
  let child = Rng.split parent in
  Alcotest.(check (list string))
    "child"
    [ "15755052996616482125"; "10712015620667187805"; "7897994942215497729" ]
    (draws child 3);
  Alcotest.(check (list string))
    "parent resumes at its second output"
    [ "3203168211198807973"; "9817491932198370423" ]
    (draws parent 2)

let test_rng_copy_independent () =
  let a = Rng.create 1234567L in
  let b = Rng.copy a in
  ignore (draws b 3 : string list);
  Alcotest.(check (list string))
    "the original keeps its own state"
    [ "6457827717110365317"; "3203168211198807973" ]
    (draws a 2);
  Alcotest.(check (list string)) "and so does the copy" [ "4593380528125082431" ] (draws b 1)

(* A bound of 3 * 2^60 leaves a partial last bucket of 2^61 raw values,
   so a quarter of the draws are rejected: from seed 42, eight draws take
   ten outputs. *)
let test_rng_int_rejection () =
  let rng = Rng.create 42L in
  Alcotest.(check (list int))
    "draws"
    [
      3380964252557096778;
      1474913046063446145;
      2569641874231381929;
      3174599030129127882;
      350766393070981625;
      2014432356388812462;
      3135310438806241002;
      2245725682304793559;
    ]
    (List.init 8 (fun _ -> Rng.int rng (3 * (1 lsl 60))));
  let raw = Rng.create 42L in
  ignore (draws raw 10 : string list);
  Alcotest.(check int64) "ten outputs taken" (Rng.next_int64 raw) (Rng.next_int64 rng)

(* Minor words per call of [f], as the difference of two loop lengths. *)
let words_per_draw f =
  let loop n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  ignore (loop 1_000 : float);
  (loop 20_000 -. loop 10_000) /. 10_000.0

(* The state is unboxed, so a draw allocates only what it returns:
   nothing for an int, the box of a float.  A boxed [int64] state cost
   14 words per [Rng.int] (a closure per draw among them) and 8 per
   [Rng.float]. *)
let test_rng_draw_allocation () =
  let rng = Rng.create 5L in
  let w = words_per_draw (fun () -> Rng.int rng 1_000) in
  check_bool (Printf.sprintf "%.1f minor words per Rng.int = 0" w) true (w = 0.0);
  let w = words_per_draw (fun () -> Rng.float rng) in
  check_bool (Printf.sprintf "%.1f minor words per Rng.float <= 2" w) true (w <= 2.0)

let test_shuffle_permutation () =
  let rng = Rng.create 17L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

(* --- Dist --- *)

let sample_mean dist seed n =
  let rng = Rng.create seed in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Dist.sample dist rng
  done;
  !total /. float_of_int n

let test_exponential_mean () =
  let m = sample_mean (Dist.Exponential 500.0) 1L 200_000 in
  check_bool "empirical mean near 500" true (abs_float (m -. 500.0) < 10.0)

let test_constant () =
  let rng = Rng.create 1L in
  check_float "constant" 42.0 (Dist.sample (Dist.Constant 42.0) rng);
  check_float "mean" 42.0 (Dist.mean (Dist.Constant 42.0));
  check_float "cv2 zero" 0.0 (Dist.cv2 (Dist.Constant 42.0))

let test_uniform_bounds () =
  let rng = Rng.create 2L in
  let d = Dist.Uniform (10.0, 20.0) in
  for _ = 1 to 1000 do
    let v = Dist.sample d rng in
    check_bool "in bounds" true (v >= 10.0 && v <= 20.0)
  done;
  check_float "mean" 15.0 (Dist.mean d)

let test_exponential_cv2_is_one () = check_float "cv2" 1.0 (Dist.cv2 (Dist.Exponential 123.0))

let test_bimodal_analytics () =
  let d = Dist.Bimodal { p_long = 0.1; short = 100.0; long = 1000.0 } in
  check_float "mean" 190.0 (Dist.mean d);
  (* var = p(1-p)d^2 = 0.09 * 810000 = 72900 *)
  check_float "variance" 72900.0 (Dist.variance d)

let test_bimodal_with_cv2_roundtrip () =
  let d = Dist.bimodal_with_cv2 ~mean:500.0 ~cv2:10.0 ~p_long:0.05 in
  check_bool "mean matches" true (abs_float (Dist.mean d -. 500.0) < 1e-6);
  check_bool "cv2 matches" true (abs_float (Dist.cv2 d -. 10.0) < 1e-6)

let test_bimodal_with_cv2_invalid () =
  Alcotest.check_raises "impossible cv2"
    (Invalid_argument "Dist.bimodal_with_cv2: requested cv2 too large for p_long")
    (fun () -> ignore (Dist.bimodal_with_cv2 ~mean:100.0 ~cv2:1000.0 ~p_long:0.9))

let test_empirical_cv2_bimodal () =
  let d = Dist.bimodal_with_cv2 ~mean:500.0 ~cv2:25.0 ~p_long:0.01 in
  let rng = Rng.create 9L in
  let w = Welford.create () in
  for _ = 1 to 300_000 do
    Welford.add w (Dist.sample d rng)
  done;
  let m = Welford.mean w in
  let cv2 = Welford.variance w /. (m *. m) in
  check_bool "empirical cv2 near 25" true (abs_float (cv2 -. 25.0) < 2.0)

let test_pareto_mean () =
  let d = Dist.Pareto { scale = 100.0; shape = 3.0 } in
  check_float "analytic mean" 150.0 (Dist.mean d);
  let m = sample_mean d 4L 300_000 in
  check_bool "empirical mean near 150" true (abs_float (m -. 150.0) < 5.0)

let test_lognormal_mean () =
  let d = Dist.Lognormal { mu = 5.0; sigma = 0.5 } in
  let analytic = Dist.mean d in
  let m = sample_mean d 5L 300_000 in
  check_bool "empirical near analytic" true (abs_float (m -. analytic) /. analytic < 0.02)

let test_samples_nonnegative () =
  let rng = Rng.create 6L in
  let dists =
    [
      Dist.Exponential 10.0;
      Dist.Bimodal { p_long = 0.5; short = 1.0; long = 2.0 };
      Dist.Pareto { scale = 1.0; shape = 2.5 };
      Dist.Lognormal { mu = 0.0; sigma = 1.0 };
      Dist.Uniform (0.0, 5.0);
    ]
  in
  List.iter
    (fun d ->
      for _ = 1 to 1000 do
        check_bool "non-negative" true (Dist.sample d rng >= 0.0)
      done)
    dists

(* --- Histogram --- *)

let test_histogram_exact_small_values () =
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.record h v) [ 1; 2; 3; 4; 5 ];
  check_int "count" 5 (Histogram.count h);
  Alcotest.(check int) "p50" 3 (Histogram.quantile h 0.5);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 5 (Histogram.max_value h);
  check_float "mean" 3.0 (Histogram.mean h)

let test_histogram_quantile_relative_error () =
  let h = Histogram.create () in
  let rng = Rng.create 10L in
  let values = Array.init 50_000 (fun _ -> 1 + Rng.int rng 1_000_000) in
  Array.iter (Histogram.record h) values;
  Array.sort compare values;
  List.iter
    (fun q ->
      let exact = values.(int_of_float (q *. 49_999.0)) in
      let approx = Histogram.quantile h q in
      let err =
        float_of_int (approx - exact) /. float_of_int exact |> abs_float
      in
      check_bool (Printf.sprintf "q=%.3f within 2%%" q) true (err < 0.02))
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record a i
  done;
  for i = 101 to 200 do
    Histogram.record b i
  done;
  Histogram.merge_into ~dst:a b;
  check_int "merged count" 200 (Histogram.count a);
  Alcotest.(check int) "merged max" 200 (Histogram.max_value a);
  check_bool "merged p50 near 100" true
    (float_of_int (Histogram.quantile a 0.5) -. 100.0 |> abs_float < 3.0)

let test_histogram_reset () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.reset h;
  check_int "count" 0 (Histogram.count h);
  Alcotest.(check int) "quantile empty" 0 (Histogram.quantile h 0.99)

let test_histogram_negative_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.record: negative value") (fun () ->
      Histogram.record h (-1))

let test_histogram_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 10 1000;
  check_int "count" 1000 (Histogram.count h);
  check_float "mean" 10.0 (Histogram.mean h)

let prop_histogram_quantile_bounds =
  QCheck.Test.make ~name:"histogram quantiles within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      List.for_all
        (fun q ->
          let x = Histogram.quantile h q in
          x <= Histogram.max_value h)
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

let prop_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles monotone in q" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let xs = List.map (Histogram.quantile h) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone xs)

(* The sorted-array oracle: the exact q-quantile of the raw sample,
   using the same ceil-rank convention as [Histogram.quantile]. *)
let oracle_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let quantile_grid = [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ]

(* Against the oracle, the histogram may only round a quantile *up*, and
   by at most one bucket: values below 2^precision are stored exactly,
   and above that a bucket spans [v, v + v/2^precision). *)
let prop_histogram_matches_sorted_oracle =
  QCheck.Test.make ~name:"histogram quantile within one bucket of oracle"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 300) (int_bound 5_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let exact = oracle_quantile sorted q in
          let approx = Histogram.quantile h q in
          approx >= exact && approx <= exact + (exact lsr 7))
        quantile_grid)

(* merge_into h1 h2 must be indistinguishable from the histogram of the
   concatenated sample: identical buckets, so identical count, min, max
   and every quantile; the mean agrees up to float summation order. *)
let prop_histogram_merge_is_concat =
  QCheck.Test.make ~name:"merge(h1,h2) == histogram of concatenation"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 150) (int_bound 5_000_000))
        (list_of_size Gen.(0 -- 150) (int_bound 5_000_000)))
    (fun (l1, l2) ->
      let h1 = Histogram.create () and h2 = Histogram.create () in
      List.iter (Histogram.record h1) l1;
      List.iter (Histogram.record h2) l2;
      Histogram.merge_into ~dst:h1 h2;
      let hc = Histogram.create () in
      List.iter (Histogram.record hc) (l1 @ l2);
      Histogram.count h1 = Histogram.count hc
      && Histogram.min_value h1 = Histogram.min_value hc
      && Histogram.max_value h1 = Histogram.max_value hc
      && abs_float (Histogram.mean h1 -. Histogram.mean hc) < 1e-6
      && List.for_all
           (fun q -> Histogram.quantile h1 q = Histogram.quantile hc q)
           quantile_grid)

(* --- Welford --- *)

let test_welford_known_values () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Welford.mean w);
  (* population variance is 4; sample variance = 32/7 *)
  check_bool "sample variance" true (abs_float (Welford.variance w -. (32.0 /. 7.0)) < 1e-9);
  check_float "min" 2.0 (Welford.min_value w);
  check_float "max" 9.0 (Welford.max_value w)

let test_welford_empty () =
  let w = Welford.create () in
  check_float "mean" 0.0 (Welford.mean w);
  check_float "variance" 0.0 (Welford.variance w)

(* --- Tablefmt --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_table_renders_all_cells () =
  let s =
    Tablefmt.render ~title:"demo" ~header:[ "name"; "value" ]
      [
        [ Tablefmt.String "alpha"; Tablefmt.Int 1 ];
        [ Tablefmt.String "beta"; Tablefmt.Float 2.5 ];
      ]
  in
  List.iter
    (fun needle -> check_bool (needle ^ " present") true (contains s needle))
    [ "demo"; "name"; "value"; "alpha"; "beta"; "2.5" ]

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Tablefmt.render: row width differs from header") (fun () ->
      ignore (Tablefmt.render ~title:"t" ~header:[ "a"; "b" ] [ [ Tablefmt.Int 1 ] ]))

let test_series_renders () =
  let s =
    Tablefmt.render_series ~title:"sweep" ~x_label:"load"
      ~columns:[ "p50"; "p99" ]
      [ (0.1, [ 10.0; 20.0 ]); (0.5, [ 30.0; 400.0 ]) ]
  in
  List.iter
    (fun needle -> check_bool (needle ^ " present") true (contains s needle))
    [ "sweep"; "load"; "p50"; "p99"; "400" ]

let test_series_rejects_wrong_arity () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Tablefmt.render_series: wrong number of y values") (fun () ->
      ignore
        (Tablefmt.render_series ~title:"t" ~x_label:"x" ~columns:[ "a" ]
           [ (1.0, [ 1.0; 2.0 ]) ]))

(* --- Json --- *)

let check_str = Alcotest.(check string)

let test_json_escape_basics () =
  check_str "plain" "hello" (Json.escape "hello");
  check_str "quote" "a\\\"b" (Json.escape "a\"b");
  check_str "backslash" "a\\\\b" (Json.escape "a\\b");
  check_str "newline" "a\\nb" (Json.escape "a\nb")

let test_json_escape_control_chars () =
  (* The cases the old hand-rolled escapers dropped on the floor. *)
  check_str "tab" "a\\tb" (Json.escape "a\tb");
  check_str "carriage return" "a\\rb" (Json.escape "a\rb");
  check_str "backspace" "a\\bb" (Json.escape "a\bb");
  check_str "form feed" "a\\fb" (Json.escape "a\012b");
  check_str "nul" "a\\u0000b" (Json.escape "a\000b");
  check_str "escape char" "a\\u001bb" (Json.escape "a\027b")

let test_json_quote () =
  check_str "quoted" "\"a\\tb\"" (Json.quote "a\tb")

let test_json_float () =
  check_str "integral" "3" (Json.float 3.0);
  check_str "fractional" "0.25" (Json.float 0.25);
  check_str "nan is null" "null" (Json.float Float.nan);
  check_str "inf is null" "null" (Json.float Float.infinity);
  check_str "neg inf is null" "null" (Json.float Float.neg_infinity)

let test_json_obj_arr () =
  check_str "obj"
    "{\"a\":1,\"b\":\"x\"}"
    (Json.obj [ ("a", "1"); ("b", Json.quote "x") ]);
  check_str "arr" "[1,2]" (Json.arr [ "1"; "2" ]);
  check_str "empty obj" "{}" (Json.obj []);
  check_str "empty arr" "[]" (Json.arr [])

let prop_json_escape_no_raw_controls =
  QCheck.Test.make ~name:"escaped strings have no raw control chars or quotes"
    ~count:500 QCheck.string (fun s ->
      let e = Json.escape s in
      String.for_all (fun c -> Char.code c >= 0x20) e
      &&
      (* any remaining quote must be preceded by a backslash *)
      let ok = ref true in
      String.iteri
        (fun i c ->
          if c = '"' && (i = 0 || e.[i - 1] <> '\\') then ok := false)
        e;
      !ok)

(* --- Parallel --- *)

let test_parallel_map_ordered () =
  let items = Array.init 40 (fun i -> i) in
  let out = Parallel.map_ordered ~jobs:4 (fun i -> i * i) items in
  Alcotest.(check (array int)) "squares in order"
    (Array.init 40 (fun i -> i * i))
    out

let test_parallel_consume_in_order () =
  let seen = ref [] in
  Parallel.run_ordered ~jobs:4
    (fun i -> i)
    (Array.init 25 (fun i -> i))
    ~consume:(fun i v ->
      check_int "index matches value" i v;
      seen := i :: !seen);
  Alcotest.(check (list int)) "consumed 0..24 in order"
    (List.init 25 (fun i -> 24 - i))
    !seen

let test_parallel_sequential_interleaves () =
  (* jobs=1 must run f and consume interleaved in the calling domain —
     the classic sequential harness behaviour. *)
  let trace = ref [] in
  Parallel.run_ordered ~jobs:1
    (fun i ->
      trace := ("f", i) :: !trace;
      i)
    [| 0; 1; 2 |]
    ~consume:(fun i _ -> trace := ("c", i) :: !trace);
  Alcotest.(check (list (pair string int)))
    "f/consume strictly alternate"
    [ ("f", 0); ("c", 0); ("f", 1); ("c", 1); ("f", 2); ("c", 2) ]
    (List.rev !trace)

let test_parallel_propagates_failure () =
  let consumed = ref [] in
  let run () =
    Parallel.run_ordered ~jobs:3
      (fun i -> if i = 2 then failwith "boom" else i)
      (Array.init 6 (fun i -> i))
      ~consume:(fun i _ -> consumed := i :: !consumed)
  in
  (match run () with
  | () -> Alcotest.fail "expected failure to propagate"
  | exception Failure msg -> check_str "original exception" "boom" msg);
  Alcotest.(check (list int)) "items before the failure were consumed" [ 1; 0 ]
    !consumed

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"map_ordered agrees with sequential map at any jobs"
    ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      let items = Array.of_list xs in
      Parallel.map_ordered ~jobs (fun x -> (2 * x) + 1) items
      = Array.map (fun x -> (2 * x) + 1) items)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_histogram_quantile_bounds;
        prop_histogram_quantile_monotone;
        prop_histogram_matches_sorted_oracle;
        prop_histogram_merge_is_concat;
        prop_json_escape_no_raw_controls;
        prop_parallel_matches_sequential;
      ]
  in
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "rough uniformity" `Quick test_rng_uniformity_rough;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
          Alcotest.test_case "published stream" `Quick test_rng_published_stream;
          Alcotest.test_case "split stream" `Quick test_rng_split_stream;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "int rejection path" `Quick test_rng_int_rejection;
          Alcotest.test_case "draws allocate" `Quick test_rng_draw_allocation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential cv2" `Quick test_exponential_cv2_is_one;
          Alcotest.test_case "bimodal analytics" `Quick test_bimodal_analytics;
          Alcotest.test_case "bimodal_with_cv2 roundtrip" `Quick test_bimodal_with_cv2_roundtrip;
          Alcotest.test_case "bimodal_with_cv2 invalid" `Quick test_bimodal_with_cv2_invalid;
          Alcotest.test_case "empirical cv2" `Quick test_empirical_cv2_bimodal;
          Alcotest.test_case "pareto mean" `Quick test_pareto_mean;
          Alcotest.test_case "lognormal mean" `Quick test_lognormal_mean;
          Alcotest.test_case "non-negative samples" `Quick test_samples_nonnegative;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact small values" `Quick test_histogram_exact_small_values;
          Alcotest.test_case "quantile relative error" `Quick test_histogram_quantile_relative_error;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "reset" `Quick test_histogram_reset;
          Alcotest.test_case "negative rejected" `Quick test_histogram_negative_rejected;
          Alcotest.test_case "record_n" `Quick test_histogram_record_n;
        ] );
      ( "welford",
        [
          Alcotest.test_case "known values" `Quick test_welford_known_values;
          Alcotest.test_case "empty" `Quick test_welford_empty;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape basics" `Quick test_json_escape_basics;
          Alcotest.test_case "escape control chars" `Quick test_json_escape_control_chars;
          Alcotest.test_case "quote" `Quick test_json_quote;
          Alcotest.test_case "float" `Quick test_json_float;
          Alcotest.test_case "obj and arr" `Quick test_json_obj_arr;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map ordered" `Quick test_parallel_map_ordered;
          Alcotest.test_case "consume in order" `Quick test_parallel_consume_in_order;
          Alcotest.test_case "jobs=1 interleaves" `Quick test_parallel_sequential_interleaves;
          Alcotest.test_case "failure propagates" `Quick test_parallel_propagates_failure;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "renders cells" `Quick test_table_renders_all_cells;
          Alcotest.test_case "ragged rows rejected" `Quick test_table_rejects_ragged_rows;
          Alcotest.test_case "series" `Quick test_series_renders;
          Alcotest.test_case "series arity" `Quick test_series_rejects_wrong_arity;
        ] );
      ("properties", qsuite);
    ]

