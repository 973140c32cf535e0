(* Domain fan-out with deterministic, in-order result delivery.

   The work list is consumed through one atomic cursor by [jobs] worker
   domains; finished results park in a slot array and the *calling*
   domain consumes them strictly in input order, as each next slot
   fills.  Output side effects performed by [consume] therefore happen
   in exactly the sequential order, whatever order the workers finish
   in — the property the bench harness relies on for byte-identical
   parallel runs.

   With [jobs <= 1] no domain is spawned at all: [f] and [consume] run
   interleaved in the caller, preserving the classic sequential
   behaviour exactly. *)

let run_ordered ~jobs f items ~consume =
  let n = Array.length items in
  if n = 0 then ()
  else if jobs <= 1 || n = 1 then
    Array.iteri (fun i x -> consume i (f x)) items
  else begin
    let workers = Int.min jobs n in
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let m = Mutex.create () in
    let filled = Condition.create () in
    let record i r =
      Mutex.lock m;
      results.(i) <- Some r;
      Condition.broadcast filled;
      Mutex.unlock m
    in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* Workers never raise: job exceptions travel to the caller and
           re-raise at the failed job's canonical position. *)
        record i (match f items.(i) with v -> Ok v | exception e -> Error e);
        work ()
      end
    in
    let domains = List.init workers (fun _ -> Domain.spawn work) in
    (* Workers are joined whatever happens in [consume] (or on a job
       failure): they drain the remaining queue and exit. *)
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      (fun () ->
        for i = 0 to n - 1 do
          Mutex.lock m;
          while Option.is_none results.(i) do
            Condition.wait filled m
          done;
          let r = Option.get results.(i) in
          Mutex.unlock m;
          match r with Ok v -> consume i v | Error e -> raise e
        done)
  end

let map_ordered ~jobs f items =
  let out = Array.make (Array.length items) None in
  run_ordered ~jobs f items ~consume:(fun i v -> out.(i) <- Some v);
  Array.map Option.get out
