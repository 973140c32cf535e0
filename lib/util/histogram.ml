(* The running sum for the mean.  An all-float record holds it
   unboxed, where a float field of [t] (a mixed record) would box every
   stored value: one allocation per [record]. *)
type sum = { mutable total : float }

type t = {
  mutable buckets : int array;  (* grows on demand *)
  mutable count : int;
  sum : sum;
  mutable min_v : int;
  mutable max_v : int;
}

let precision = 7  (* sub-bucket bits per octave *)

let create () =
  {
    buckets = Array.make (1 lsl (precision + 2)) 0;
    count = 0;
    sum = { total = 0.0 };
    min_v = 0;
    max_v = 0;
  }

(* Bucket layout: values below 2^precision are stored exactly (index =
   value).  Above that, each octave [2^k, 2^(k+1)) is split into
   2^precision sub-buckets indexed by the top [precision] bits below the
   leading one. *)

let index_of v =
  let sub = 1 lsl precision in
  if v < sub then v
  else begin
    (* Position of the leading one bit; v >= sub so k >= precision. *)
    let rec leading_one n acc = if n <= 1 then acc else leading_one (n lsr 1) (acc + 1) in
    let k = leading_one v 0 in
    let octave = k - precision in
    let within = (v lsr octave) land (sub - 1) in
    sub + (octave * sub) + within
  end

(* Upper bound of the bucket's value range, so quantiles are conservative. *)
let value_of idx =
  let sub = 1 lsl precision in
  if idx < sub then idx
  else begin
    let idx' = idx - sub in
    let octave = idx' / sub in
    let within = idx' mod sub in
    let k = octave + precision in
    let step = 1 lsl octave in
    let lo = (1 lsl k) + (within * step) in
    lo + step - 1
  end

let ensure_capacity t idx =
  let n = Array.length t.buckets in
  if idx >= n then begin
    let n' = max (idx + 1) (2 * n) in
    let b = Array.make n' 0 in
    Array.blit t.buckets 0 b 0 n;
    t.buckets <- b
  end

let record_n t v n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n > 0 then begin
    let idx = index_of v in
    ensure_capacity t idx;
    t.buckets.(idx) <- t.buckets.(idx) + n;
    if t.count = 0 then begin
      t.min_v <- v;
      t.max_v <- v
    end
    else begin
      if v < t.min_v then t.min_v <- v;
      if v > t.max_v then t.max_v <- v
    end;
    t.count <- t.count + n;
    t.sum.total <- t.sum.total +. (float_of_int v *. float_of_int n)
  end

let record t v = record_n t v 1

let count t = t.count
let min_value t = t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0.0 else t.sum.total /. float_of_int t.count

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q outside [0,1]";
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = max rank 1 in
    let acc = ref 0 and result = ref t.max_v and found = ref false in
    (try
       for i = 0 to Array.length t.buckets - 1 do
         acc := !acc + t.buckets.(i);
         if (not !found) && !acc >= rank then begin
           result := value_of i;
           found := true;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report beyond the recorded maximum. *)
    if !result > t.max_v then t.max_v else !result
  end

let merge_into ~dst src =
  ensure_capacity dst (Array.length src.buckets - 1);
  Array.iteri (fun i n -> if n > 0 then dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  if src.count > 0 then begin
    if dst.count = 0 then begin
      dst.min_v <- src.min_v;
      dst.max_v <- src.max_v
    end
    else begin
      if src.min_v < dst.min_v then dst.min_v <- src.min_v;
      if src.max_v > dst.max_v then dst.max_v <- src.max_v
    end;
    dst.count <- dst.count + src.count;
    dst.sum.total <- dst.sum.total +. src.sum.total
  end

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.sum.total <- 0.0;
  t.min_v <- 0;
  t.max_v <- 0

let pp_summary ppf t =
  Format.fprintf ppf "n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d" (count t)
    (mean t) (quantile t 0.50) (quantile t 0.99) (quantile t 0.999) (max_value t)
