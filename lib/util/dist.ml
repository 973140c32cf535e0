type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Bimodal of { p_long : float; short : float; long : float }
  | Pareto of { scale : float; shape : float }
  | Lognormal of { mu : float; sigma : float }

let sample t rng =
  match t with
  | Constant v -> v
  | Uniform (lo, hi) -> lo +. ((hi -. lo) *. Rng.float rng)
  | Exponential mean ->
    (* Inverse transform; 1 - u avoids log 0. *)
    -.mean *. log (1.0 -. Rng.float rng)
  | Bimodal { p_long; short; long } ->
    if Rng.float rng < p_long then long else short
  | Pareto { scale; shape } ->
    scale /. ((1.0 -. Rng.float rng) ** (1.0 /. shape))
  | Lognormal { mu; sigma } ->
    (* Box-Muller. *)
    let u1 = 1.0 -. Rng.float rng and u2 = Rng.float rng in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    exp (mu +. (sigma *. z))

let mean = function
  | Constant v -> v
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential mean -> mean
  | Bimodal { p_long; short; long } ->
    ((1.0 -. p_long) *. short) +. (p_long *. long)
  | Pareto { scale; shape } ->
    if shape <= 1.0 then infinity else shape *. scale /. (shape -. 1.0)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.0))

let variance = function
  | Constant _ -> 0.0
  | Uniform (lo, hi) ->
    let d = hi -. lo in
    d *. d /. 12.0
  | Exponential mean -> mean *. mean
  | Bimodal { p_long; short; long } ->
    let d = long -. short in
    p_long *. (1.0 -. p_long) *. d *. d
  | Pareto { scale; shape } ->
    if shape <= 2.0 then infinity
    else scale *. scale *. shape /. ((shape -. 1.0) *. (shape -. 1.0) *. (shape -. 2.0))
  | Lognormal { mu; sigma } ->
    let s2 = sigma *. sigma in
    (exp s2 -. 1.0) *. exp ((2.0 *. mu) +. s2)

let cv2 t =
  let m = mean t in
  if m = 0.0 then 0.0 else variance t /. (m *. m)

let bimodal_with_cv2 ~mean:m ~cv2 ~p_long =
  if p_long <= 0.0 || p_long >= 1.0 then
    invalid_arg "Dist.bimodal_with_cv2: p_long must lie in (0, 1)";
  if m <= 0.0 || cv2 < 0.0 then
    invalid_arg "Dist.bimodal_with_cv2: mean must be positive, cv2 non-negative";
  (* With modes short s < long l and P(long) = p:
       mean = s + p*(l - s)   and   var = p*(1-p)*(l - s)^2,
     so (l - s) = sqrt(var / (p*(1-p))) and s = mean - p*(l - s). *)
  let var = cv2 *. m *. m in
  let spread = sqrt (var /. (p_long *. (1.0 -. p_long))) in
  let short = m -. (p_long *. spread) in
  if short < 0.0 then
    invalid_arg "Dist.bimodal_with_cv2: requested cv2 too large for p_long";
  Bimodal { p_long; short; long = short +. spread }
