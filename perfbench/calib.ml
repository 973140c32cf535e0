(* Host-speed reference.

   The host this benchmark runs on shares its cores and memory with
   other machines' work: over tens of seconds its speed drifts by up to
   40%, slowing set-up and runs alike.  This kernel measures that drift.
   It is a miniature of the simulator's own work written against the
   standard library only, so no change to the simulator can move it:
   64 coroutines that suspend through an effect, a time-ordered map of
   their continuations, a hash table, short-lived records that a ring
   keeps alive long enough to be promoted, and random accesses to a
   buffer larger than the caches (outside the OCaml heap, so it does not
   count towards the benchmark's peak heap).  The benchmark times it
   before every world and scales its host times by the kernel's median
   time against [nominal_ns]. *)

module Queue_by_time = Map.Make (struct
  type t = int * int

  let compare (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d
end)

type _ Effect.t += Delay : int -> unit Effect.t

let coroutines = 64
let steps_each = 60
let buffer_words = 1 lsl 20

(* Created on first use, after the warm-up round has read the peak heap:
   its external memory paces the GC. *)
let buffer =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout buffer_words in
     Bigarray.Array1.fill b 0;
     b)

let kernel () =
  let buffer = Lazy.force buffer in
  let queue = ref Queue_by_time.empty and seq = ref 0 and now = ref 0 in
  let table = Hashtbl.create 1024 in
  let ring = Array.make 4096 [||] in
  let push at k =
    incr seq;
    queue := Queue_by_time.add (at, !seq) k !queue
  in
  let body id () =
    let x = ref id in
    for i = 1 to steps_each do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace table (!x land 1023) id;
      for j = 0 to 7 do
        let a = (!x + (j * 131_071)) land (buffer_words - 1) in
        Bigarray.Array1.unsafe_set buffer a (Bigarray.Array1.unsafe_get buffer a + 1)
      done;
      ring.(((id * steps_each) + i) land 4095) <- Array.make 12 !x;
      Effect.perform (Delay (1 + (!x land 63)))
    done
  in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Delay d ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                push (!now + d) (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  for id = 1 to coroutines do
    push 0 (fun () -> Effect.Deep.match_with (body id) () handler)
  done;
  while not (Queue_by_time.is_empty !queue) do
    let ((at, _) as key), k = Queue_by_time.min_binding !queue in
    queue := Queue_by_time.remove key !queue;
    now := at;
    k ()
  done;
  (* Records replacing random slots of a large array: the minor heap
     promotes them and the major heap grows, as the simulator's does. *)
  let live = Array.make 65536 [||] and acc = ref 0 and x = ref 7 in
  for _ = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 65535 in
    let old = live.(j) in
    if Array.length old > 0 then acc := !acc + old.(0);
    live.(j) <- Array.make 12 !x
  done;
  Hashtbl.length table + !now + !acc

(* The kernel's time on a quiet host.  Any fixed value would do, since
   only ratios between runs matter; this one keeps scaled figures close
   to raw ones. *)
let nominal_ns = 3_000_000

(* Host nanoseconds of one kernel run. *)
let measure () =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0)
