(* The paper's scale (§1: tens to thousands of hardware threads per
   core) as a heap and set-up check: 100 cores × 1,000 parked ptids,
   one doorbell each.  Each ptid must hold fewer than [heap_bound] heap
   words once parked, under 1 KB: 102.0 on OCaml 5.1, 103.3 while the
   wheel kept a ready ring beside its event arena, 104.3 while the
   core kept a bill flag per slot beside its sums, 105.6 while the
   wheel's ready ring kept payloads and tags of its own, 112.0 while the
   chip's ptid table was a Hashtbl beside a list of every thread, 123.0
   while every thread kept a monitor-waiter closure and every process a
   waker closure.  Setting one up, from [add_thread] until it is
   parked, must allocate fewer than [setup_bound] minor words: 85.0 on
   OCaml 5.1, 92.5 with that Hashtbl and list, 151.5 while the thread,
   its context and its process were each built twice through a
   [let rec].  The host time per ptid is printed, not gated.
   About 2 s and a few hundred MB of host memory, so it is kept out of
   `dune runtest`; CI's perf-smoke job runs it:

     dune exec test/core/paper_scale_heap.exe *)

let heap_bound = 105.0
let setup_bound = 89.0

let () =
  let r = Parked_heap.measure ~cores:100 ~per_core:1_000 in
  let peak_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6 in
  Printf.printf
    "100 cores x 1000 parked ptids: %.1f heap words per ptid (bound %.0f), major heap peak %.1f MB\n"
    r.heap_words heap_bound peak_mb;
  Printf.printf "set-up: %.1f minor words per ptid (bound %.0f), %.2f host us per ptid\n"
    r.setup_minor_words setup_bound
    (r.setup_s *. 1e6 /. 100_000.0);
  if not (r.heap_words < heap_bound && r.setup_minor_words < setup_bound) then exit 1
