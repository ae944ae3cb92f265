open Helpers
module Sensitivity = Nakamoto_core.Sensitivity
module Bounds = Nakamoto_core.Bounds

let finite_difference f x =
  let h = 1e-7 *. Float.max 1e-3 (Float.abs x) in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

let test_threshold_derivative_vs_finite_difference () =
  List.iter
    (fun nu ->
      close ~rtol:1e-5
        (Printf.sprintf "T' at nu=%g" nu)
        (finite_difference (fun nu -> Bounds.neat_c_min ~nu) nu)
        (Sensitivity.threshold_derivative ~nu))
    [ 0.01; 0.05; 0.1; 0.25; 0.4; 0.49 ]

let test_threshold_derivative_positive () =
  List.iter
    (fun nu ->
      check_true
        (Printf.sprintf "positive at %g" nu)
        (Sensitivity.threshold_derivative ~nu > 0.))
    [ 1e-6; 0.1; 0.3; 0.499 ];
  check_raises_invalid "domain" (fun () ->
      ignore (Sensitivity.threshold_derivative ~nu:0.5))

let test_slope_vs_finite_difference () =
  List.iter
    (fun c ->
      close ~rtol:1e-4
        (Printf.sprintf "slope at c=%g" c)
        (finite_difference (fun c -> Bounds.neat_numax ~c) c)
        (Sensitivity.numax_slope ~c))
    [ 0.5; 1.; 2.; 5.; 20. ]

let test_slope_diminishing () =
  (* Safety gets more expensive as nu_max saturates toward 1/2. *)
  check_true "slope decreasing"
    (Sensitivity.numax_slope ~c:10. < Sensitivity.numax_slope ~c:1.);
  check_true "tiny at large c" (Sensitivity.numax_slope ~c:1000. < 1e-3)

let test_elasticity_shape () =
  (* Elasticity is large when nu_max is tiny and vanishes at saturation. *)
  check_true "high at small c" (Sensitivity.numax_elasticity ~c:0.3 > 1.);
  check_true "low at large c" (Sensitivity.numax_elasticity ~c:100. < 0.01)

let test_table () =
  let t = Sensitivity.marginal_value_table ~c_grid:[ 1.; 2.; 4. ] in
  check_int "rows" 3 (Nakamoto_numerics.Table.row_count t)

let props =
  [
    prop "inverse-function identity: T'(numax c) * slope(c) = 1"
      (Arbitrary.float_range ~lo:0.3 ~hi:100.)
      (fun c ->
        let nu = Bounds.neat_numax ~c in
        let product =
          Sensitivity.threshold_derivative ~nu *. Sensitivity.numax_slope ~c
        in
        Float.abs (product -. 1.) < 1e-9);
  ]

let suite =
  [
    case "T' matches finite differences" test_threshold_derivative_vs_finite_difference;
    case "T' positive on the domain" test_threshold_derivative_positive;
    case "slope matches finite differences" test_slope_vs_finite_difference;
    case "diminishing returns" test_slope_diminishing;
    case "elasticity shape" test_elasticity_shape;
    case "table" test_table;
  ]
  @ props
