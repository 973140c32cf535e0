(* The paper's scale (§1: tens to thousands of hardware threads per
   core) as a heap check: 100 cores × 1,000 parked ptids, one doorbell
   each, must hold fewer than [bound] heap words per parked ptid, under
   1 KB.  It reads 123 words on OCaml 5.1, and fails if each thread
   keeps a wake-delivery closure of its own again (126.6).  About 2 s
   and a few hundred MB of host memory, so it is kept out of `dune
   runtest`; CI's perf-smoke job runs it:

     dune exec test/core/paper_scale_heap.exe *)

let bound = 125.0

let () =
  let words = Parked_heap.words_per_ptid ~cores:100 ~per_core:1_000 in
  let peak_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6 in
  Printf.printf
    "100 cores x 1000 parked ptids: %.1f heap words per ptid (bound %.0f), major heap peak %.1f MB\n"
    words bound peak_mb;
  if not (words < bound) then exit 1
