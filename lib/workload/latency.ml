module Histogram = Sl_util.Histogram

type t = {
  hist : Histogram.t;
  slo : int;
  mutable slo_miss : int;
}

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p99 : int;
  p999 : int;
  max_v : int;
  slo : int;
  slo_miss : int;
  goodput_per_kcycle : float;
}

let create ~slo () =
  if slo < 0 then invalid_arg "Latency.create: slo must be non-negative";
  { hist = Histogram.create (); slo; slo_miss = 0 }

let record t sojourn =
  Histogram.record t.hist sojourn;
  if sojourn > t.slo then t.slo_miss <- t.slo_miss + 1

let hist t = t.hist
let count t = Histogram.count t.hist
let slo_miss (t : t) = t.slo_miss
let met t = Histogram.count t.hist - t.slo_miss

let summarize t ~elapsed =
  {
    count = Histogram.count t.hist;
    mean = Histogram.mean t.hist;
    p50 = Histogram.quantile t.hist 0.5;
    p99 = Histogram.quantile t.hist 0.99;
    p999 = Histogram.quantile t.hist 0.999;
    max_v = Histogram.max_value t.hist;
    slo = t.slo;
    slo_miss = t.slo_miss;
    goodput_per_kcycle =
      (if elapsed <= 0 then 0.0
       else float_of_int (met t) *. 1000.0 /. float_of_int elapsed);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.0f p50=%d p99=%d p999=%d max=%d slo_miss=%d goodput=%.3f/kcyc"
    s.count s.mean s.p50 s.p99 s.p999 s.max_v s.slo_miss s.goodput_per_kcycle
