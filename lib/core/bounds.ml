module Roots = Nakamoto_numerics.Roots

let check_nu_open nu =
  if not (nu > 0. && nu < 0.5) then
    invalid_arg "Bounds: nu must lie in (0, 1/2)"

(* ln (mu / nu).  For a subnormal nu the quotient overflows to infinity,
   so there the logs are subtracted instead; every other nu keeps the
   quotient's bits. *)
let log_odds ~mu ~nu =
  let odds = mu /. nu in
  if Float.is_finite odds then log odds else log mu -. log nu

let neat_c_min ~nu =
  check_nu_open nu;
  let mu = 1. -. nu in
  2. *. mu /. log_odds ~mu ~nu

(* All the numax inversions share the same shape: the criterion function is
   monotone in nu on (0, 1/2), positive for small nu (safe) and negative for
   large nu (unsafe); the root is the supremum of the safe region.  Clamped
   bisection endpoints keep the criterion functions inside their domain. *)
let invert_in_nu ~criterion =
  let lo = 1e-12 and hi = 0.5 -. 1e-12 in
  if criterion lo <= 0. then 0.
  else if criterion hi > 0. then hi
  else
    match Roots.bisect ~tol:1e-13 ~f:criterion ~lo ~hi () with
    | Roots.Converged { root; _ } -> root
    | Roots.Max_iterations { best; _ } -> best
    | Roots.No_sign_change _ ->
      (* Excluded by the endpoint checks above. *)
      assert false

let neat_numax ~c =
  if not (c > 0.) then invalid_arg "Bounds.neat_numax: c must be positive";
  invert_in_nu ~criterion:(fun nu -> c -. neat_c_min ~nu)

let pss_consistency_holds (p : Params.t) =
  let alpha = Params.alpha p in
  let beta = p.p *. p.nu *. p.n in
  alpha *. (1. -. (((2. *. p.delta) +. 2.) *. alpha)) > beta

let pss_numax_closed ~c =
  if c <= 0. then invalid_arg "Bounds.pss_numax_closed: c must be positive";
  if c <= 2. then 0. else (2. -. c +. sqrt ((c *. c) -. (2. *. c))) /. 2.

let pss_numax_exact ~n ~delta ~c =
  if n <= 0. || delta <= 0. || c <= 0. then
    invalid_arg "Bounds.pss_numax_exact: arguments must be positive";
  let criterion nu =
    let p = Params.of_c ~n ~delta ~nu ~c in
    let alpha = Params.alpha p in
    let beta = p.Params.p *. nu *. n in
    (alpha *. (1. -. (((2. *. delta) +. 2.) *. alpha))) -. beta
  in
  invert_in_nu ~criterion

let pss_attack_nu ~c =
  if c <= 0. then invalid_arg "Bounds.pss_attack_nu: c must be positive";
  ((2. *. c) +. 1. -. sqrt ((4. *. c *. c) +. 1.)) /. 2.

let theorem1_margin ?(delta1 = 0.) (p : Params.t) =
  if delta1 < 0. then invalid_arg "Bounds.theorem1_margin: delta1 < 0";
  if p.nu = 0. then infinity
  else
    (2. *. p.delta *. Params.log_abar p)
    +. Params.log_alpha1 p
    -. (log1p delta1 +. Params.log_adversary_rate p)

let theorem1_holds ?delta1 p = theorem1_margin ?delta1 p > 0.

let theorem1_numax ?delta1 ~n ~delta ~c () =
  if n <= 0. || delta <= 0. || c <= 0. then
    invalid_arg "Bounds.theorem1_numax: arguments must be positive";
  invert_in_nu ~criterion:(fun nu ->
      theorem1_margin ?delta1 (Params.of_c ~n ~delta ~nu ~c))

let check_theorem2_args ~nu ~delta ~eps2 =
  check_nu_open nu;
  if delta < 1. then invalid_arg "Bounds: delta must be >= 1";
  if eps2 <= 0. then invalid_arg "Bounds: eps2 must be positive"

let theorem2_c_min ~nu ~delta ~eps1 ~eps2 =
  check_theorem2_args ~nu ~delta ~eps2;
  if not (eps1 > 0. && eps1 < 1.) then
    invalid_arg "Bounds.theorem2_c_min: eps1 must lie in (0, 1)";
  let mu = 1. -. nu in
  let l = log_odds ~mu ~nu in
  let first = ((2. *. mu /. l) +. (1. /. delta)) *. (1. +. eps2) /. (1. -. eps1) in
  let second = (l +. 1.) *. mu /. (eps1 *. delta *. l) in
  Float.max first second

(* With A = (2mu/L + 1/Delta)(1+eps2) and B = (L+1)mu/(Delta L), the first
   branch A/(1-eps1) increases and the second B/eps1 decreases in eps1, so
   the max is minimized where they meet: eps1* = B/(A+B), value A + B. *)
let theorem2_c_min_optimal ~nu ~delta ~eps2 =
  check_theorem2_args ~nu ~delta ~eps2;
  let mu = 1. -. nu in
  let l = log_odds ~mu ~nu in
  let a = ((2. *. mu /. l) +. (1. /. delta)) *. (1. +. eps2) in
  let b = (l +. 1.) *. mu /. (delta *. l) in
  a +. b

let theorem2_numax ~delta ~eps2 ~c =
  if c <= 0. then invalid_arg "Bounds.theorem2_numax: c must be positive";
  if delta < 1. then invalid_arg "Bounds.theorem2_numax: delta must be >= 1";
  if eps2 <= 0. then invalid_arg "Bounds.theorem2_numax: eps2 must be positive";
  invert_in_nu ~criterion:(fun nu -> c -. theorem2_c_min_optimal ~nu ~delta ~eps2)

let flawed_alpha1 (p : Params.t) = Params.honest_rate p

let flawed_theorem1_margin (p : Params.t) =
  if p.nu = 0. then infinity
  else
    (2. *. p.delta *. Params.log_abar p)
    +. log (flawed_alpha1 p)
    -. Params.log_adversary_rate p
