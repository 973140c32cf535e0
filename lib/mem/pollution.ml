type t = { l1 : Cache.t; l2 : Cache.t; tlb : Tlb.t }

let create () =
  {
    l1 = Cache.create Cache.l1d_default;
    l2 = Cache.create Cache.l2_default;
    tlb = Tlb.create Tlb.default;
  }

let warm t ~asid ~start ~bytes =
  Cache.warm t.l1 ~start ~bytes;
  Cache.warm t.l2 ~start ~bytes;
  Tlb.warm t.tlb ~asid ~start ~bytes

let walk_cost t ~asid ~start ~bytes =
  let line = 64 in
  let lines = (bytes + line - 1) / line in
  let cost = ref 0 in
  for i = 0 to lines - 1 do
    let addr = start + (i * line) in
    cost := !cost + Tlb.access_cycles t.tlb ~asid addr;
    (match Cache.access t.l1 addr with
    | `Hit -> cost := !cost + 4
    | `Miss -> cost := !cost + 4 + Cache.access_cycles t.l2 addr)
  done;
  !cost

let trap_pollution t rng =
  Cache.pollute t.l1 ~fraction:0.25 rng;
  Cache.pollute t.l2 ~fraction:0.05 rng

let context_switch_pollution t =
  Cache.flush t.l1;
  Tlb.flush t.tlb
