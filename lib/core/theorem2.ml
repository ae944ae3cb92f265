module Table = Nakamoto_numerics.Table
module Special = Nakamoto_numerics.Special

let condition_holds ~eps1 ~eps2 (p : Params.t) =
  if p.nu = 0. then invalid_arg "Theorem2.condition_holds: requires nu > 0";
  Params.c p >= Bounds.theorem2_c_min ~nu:p.nu ~delta:p.delta ~eps1 ~eps2

type regime = {
  delta1 : float;
  delta2 : float;
  nu_lo : float;
  log_nu_lo : float;
  nu_hi : float;
  half_minus_nu_hi : float;
  inflation : float;
}

let regime ~delta ~delta1 ~delta2 =
  if delta < 2. then invalid_arg "Theorem2.regime: delta must be >= 2";
  if not (delta1 > 0. && delta2 > 0.) then
    invalid_arg "Theorem2.regime: delta1, delta2 must be positive";
  if delta1 +. delta2 >= 1. then
    invalid_arg "Theorem2.regime: requires delta1 + delta2 < 1";
  let d_d1 = delta ** delta1 in
  let d_d2 = delta ** delta2 in
  let nu_lo = Special.sigmoid (-.d_d1) in
  (* log (1/(1+e^x)) = -log1p (e^x); for large x this is just -x. *)
  let log_nu_lo =
    if d_d1 > 700. then -.d_d1 else -.Special.log1p (exp d_d1)
  in
  let x_hi = 1. /. (d_d2 -. 1.) in
  let nu_hi = Special.sigmoid (-.x_hi) in
  (* 1/2 - sigmoid(-x) = x/4 + O(x^3) for small x; tanh form is exact. *)
  let half_minus_nu_hi = 0.5 *. Float.tanh (x_hi /. 2.) in
  let inflation =
    (1. +. (delta ** (delta1 -. 1.)))
    /. (1. -. (delta ** (delta1 +. delta2 -. 1.)))
  in
  { delta1; delta2; nu_lo; log_nu_lo; nu_hi; half_minus_nu_hi; inflation }

let remark1_rows () =
  let delta = 1e13 in
  [
    regime ~delta ~delta1:(1. /. 6.) ~delta2:(1. /. 2.);
    regime ~delta ~delta1:(1. /. 8.) ~delta2:(2. /. 3.);
  ]

let remark1_table ~title =
  let t =
    Table.create ~title
      ~columns:[ "delta1"; "delta2"; "nu lower"; "1/2 - nu upper"; "inflation - 1" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.Float r.delta1; Table.Float r.delta2; Table.Log10 r.log_nu_lo;
          Table.Sci r.half_minus_nu_hi; Table.Sci (r.inflation -. 1.);
        ])
    (remark1_rows ());
  t

let neat_bound_with_inflation ~nu ~eps2 r =
  if eps2 <= 0. then
    invalid_arg "Theorem2.neat_bound_with_inflation: eps2 must be positive";
  Bounds.neat_c_min ~nu *. (1. +. eps2) *. r.inflation

let consistency_c_threshold ~nu = Bounds.neat_c_min ~nu
