open Helpers
module Bounds = Nakamoto_core.Bounds
module Params = Nakamoto_core.Params

let test_neat_c_min_known_values () =
  (* nu = 1/3: 2 (2/3) / ln 2. *)
  close "nu = 1/3" (4. /. 3. /. log 2.) (Bounds.neat_c_min ~nu:(1. /. 3.));
  close "nu = 0.25" (1.5 /. log 3.) (Bounds.neat_c_min ~nu:0.25);
  check_raises_invalid "nu = 0" (fun () -> ignore (Bounds.neat_c_min ~nu:0.));
  check_raises_invalid "nu = 0.5" (fun () -> ignore (Bounds.neat_c_min ~nu:0.5))

let test_neat_numax_inverts () =
  List.iter
    (fun nu ->
      let c = Bounds.neat_c_min ~nu in
      close ~rtol:1e-8 (Printf.sprintf "inversion at nu=%g" nu) nu
        (Bounds.neat_numax ~c))
    [ 0.01; 0.1; 0.25; 0.4; 0.49 ];
  check_raises_invalid "c <= 0" (fun () -> ignore (Bounds.neat_numax ~c:0.));
  (* NaN is not positive: the typed error, not the inversion's assert. *)
  Alcotest.check_raises "c = nan"
    (Invalid_argument "Bounds.neat_numax: c must be positive") (fun () ->
      ignore (Bounds.neat_numax ~c:nan))

let test_neat_numax_limits () =
  check_true "large c approaches 1/2" (Bounds.neat_numax ~c:1e6 > 0.499);
  check_true "tiny c approaches 0" (Bounds.neat_numax ~c:0.01 < 1e-4)

let test_pss_closed_form () =
  close "zero at c <= 2" 0. (Bounds.pss_numax_closed ~c:1.5);
  close "zero at exactly 2" 0. (Bounds.pss_numax_closed ~c:2.);
  (* c = 3: (2 - 3 + sqrt 3) / 2. *)
  close "c = 3" ((sqrt 3. -. 1.) /. 2.) (Bounds.pss_numax_closed ~c:3.);
  check_true "approaches 1/2" (Bounds.pss_numax_closed ~c:1e5 > 0.499)

let test_pss_attack_nu () =
  (* c = 1: (3 - sqrt 5)/2 = 0.381966... *)
  close "c = 1" ((3. -. sqrt 5.) /. 2.) (Bounds.pss_attack_nu ~c:1.);
  check_true "monotone"
    (Bounds.pss_attack_nu ~c:2. > Bounds.pss_attack_nu ~c:1.);
  (* Inverse relation: at nu = attack threshold, 1/c = 1/nu - 1/(1-nu). *)
  let c = 5. in
  let nu = Bounds.pss_attack_nu ~c in
  close ~rtol:1e-9 "defining identity" (1. /. c) ((1. /. nu) -. (1. /. (1. -. nu)))

let test_pss_exact_near_closed_at_scale () =
  (* At the paper's n and Delta, the exact PSS inversion should sit close
     to (and below, being exact) the closed approximation. *)
  List.iter
    (fun c ->
      let exact = Bounds.pss_numax_exact ~n:1e5 ~delta:1e13 ~c in
      let closed = Bounds.pss_numax_closed ~c in
      check_true
        (Printf.sprintf "close at c=%g (%.6f vs %.6f)" c exact closed)
        (Float.abs (exact -. closed) < 0.02))
    [ 3.; 5.; 10.; 50. ];
  check_raises_invalid "bad args" (fun () ->
      ignore (Bounds.pss_numax_exact ~n:0. ~delta:1. ~c:1.))

let test_pss_consistency_exact_condition () =
  (* Below its numax the exact condition holds; above, it fails. *)
  let n = 1e5 and delta = 1e13 and c = 5. in
  let numax = Bounds.pss_numax_exact ~n ~delta ~c in
  check_true "holds below"
    (Bounds.pss_consistency_holds (Params.of_c ~n ~delta ~nu:(numax *. 0.95) ~c));
  check_false "fails above"
    (Bounds.pss_consistency_holds (Params.of_c ~n ~delta ~nu:(Float.min 0.49 (numax *. 1.05)) ~c))

let test_theorem1_margin_sign () =
  let n = 1e5 and delta = 1e13 and c = 3. in
  let numax = Bounds.theorem1_numax ~n ~delta ~c () in
  check_true "positive margin below numax"
    (Bounds.theorem1_margin (Params.of_c ~n ~delta ~nu:(numax -. 0.01) ~c) > 0.);
  check_true "negative margin above numax"
    (Bounds.theorem1_margin (Params.of_c ~n ~delta ~nu:(numax +. 0.01) ~c) < 0.);
  check_true "nu = 0 trivially safe"
    (Bounds.theorem1_margin (Params.of_c ~n ~delta ~nu:0. ~c) = infinity);
  check_raises_invalid "delta1 < 0" (fun () ->
      ignore (Bounds.theorem1_margin ~delta1:(-0.1) (Params.of_c ~n ~delta ~nu:0.1 ~c)))

let test_theorem1_delta1_shrinks_region () =
  let n = 1e5 and delta = 1e13 and c = 3. in
  let loose = Bounds.theorem1_numax ~n ~delta ~c () in
  let tight = Bounds.theorem1_numax ~delta1:0.5 ~n ~delta ~c () in
  check_true "slack shrinks numax" (tight < loose)

let test_theorem1_approaches_neat () =
  (* The dimensional identity: as n, Delta grow at fixed c, Theorem 1's
     region converges to the neat bound. *)
  let c = 2.5 in
  let neat = Bounds.neat_numax ~c in
  let exact = Bounds.theorem1_numax ~n:1e5 ~delta:1e13 ~c () in
  close ~rtol:1e-5 "converged at paper scale" neat exact;
  let small = Bounds.theorem1_numax ~n:40. ~delta:4. ~c () in
  check_true "small systems tolerate less" (small < neat)

let test_theorem2_c_min () =
  let nu = 0.25 and delta = 1e13 in
  let v = Bounds.theorem2_c_min ~nu ~delta ~eps1:0.5 ~eps2:0.1 in
  (* Must be at least the first branch. *)
  let mu = 0.75 and l = log 3. in
  let first = ((2. *. mu /. l) +. 1e-13) *. 1.1 /. 0.5 in
  check_true "at least first branch" (v >= first -. 1e-9);
  check_raises_invalid "eps1 out of range" (fun () ->
      ignore (Bounds.theorem2_c_min ~nu ~delta ~eps1:1.5 ~eps2:0.1));
  check_raises_invalid "eps2 <= 0" (fun () ->
      ignore (Bounds.theorem2_c_min ~nu ~delta ~eps1:0.5 ~eps2:0.))

let test_theorem2_optimal_dominates () =
  (* The eps1-optimized value is <= the max-form at any particular eps1. *)
  let nu = 0.3 and delta = 1e6 and eps2 = 0.05 in
  let opt = Bounds.theorem2_c_min_optimal ~nu ~delta ~eps2 in
  List.iter
    (fun eps1 ->
      check_true
        (Printf.sprintf "optimal <= max-form at eps1=%g" eps1)
        (opt <= Bounds.theorem2_c_min ~nu ~delta ~eps1 ~eps2 +. 1e-9))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_theorem2_approaches_neat () =
  let nu = 0.25 in
  let neat = Bounds.neat_c_min ~nu in
  let exact = Bounds.theorem2_c_min_optimal ~nu ~delta:1e13 ~eps2:1e-12 in
  close ~rtol:1e-9 "Theorem 2 collapses to the neat bound" neat exact;
  (* At small Delta the finite correction is visible. *)
  let coarse = Bounds.theorem2_c_min_optimal ~nu ~delta:10. ~eps2:1e-12 in
  check_true "finite Delta costs extra" (coarse > neat +. 0.05)

let test_flawed_accounting_ablation () =
  (* The flawed per-block accounting overstates alpha1 (p mu n >= alpha1),
     making the flawed margin strictly larger — i.e. the error in [6] made
     the bound look better than it is. *)
  let p = Params.of_c ~n:100. ~delta:10. ~nu:0.3 ~c:1.5 in
  check_true "flawed alpha1 dominates"
    (Bounds.flawed_alpha1 p >= Params.alpha1 p);
  check_true "flawed margin larger"
    (Bounds.flawed_theorem1_margin p > Bounds.theorem1_margin p)

let props =
  [
    prop "ordering ours within [PSS, attack]"
      (Arbitrary.float_range ~lo:0.11 ~hi:100.)
      (fun c ->
        let ours = Bounds.neat_numax ~c in
        let pss = Bounds.pss_numax_closed ~c in
        let attack = Bounds.pss_attack_nu ~c in
        pss <= ours +. 1e-9 && ours <= attack +. 1e-9);
    prop "neat bound round trip" (Arbitrary.float_range ~lo:0.02 ~hi:0.48)
      (fun nu ->
        let c = Bounds.neat_c_min ~nu in
        Float.abs (Bounds.neat_numax ~c -. nu) < 1e-7);
    prop "theorem1_holds iff margin positive"
      Arbitrary.(
        pair (float_range ~lo:0.05 ~hi:0.45) (float_range ~lo:0.5 ~hi:20.))
      (fun (nu, c) ->
        let p = Params.of_c ~n:1e4 ~delta:1e4 ~nu ~c in
        Bounds.theorem1_holds p = (Bounds.theorem1_margin p > 0.));
  ]

(* Below nu ~ 5.6e-309 the quotient mu / nu overflows; the bounds then
   take log mu - log nu, and every nu above keeps the quotient's bits. *)
let test_subnormal_nu () =
  let limit nu = 2. /. -.log nu in
  List.iter
    (fun nu ->
      close ~rtol:1e-12 (Printf.sprintf "neat at nu = %g" nu) (limit nu)
        (Bounds.neat_c_min ~nu);
      close ~rtol:1e-9
        (Printf.sprintf "Theorem 2 at nu = %g" nu)
        (limit nu)
        (Bounds.theorem2_c_min_optimal ~nu ~delta:1e13 ~eps2:1e-9))
    [ 5e-309; 1e-315; 5e-324 ];
  let nu = 1e-300 in
  check_true "a normal nu keeps the quotient"
    (Bounds.neat_c_min ~nu = 2. *. (1. -. nu) /. log ((1. -. nu) /. nu))

(* The tight fault-tolerance condition of Li, Guo and Ren (arXiv
   2011.14051), lambda_a < lambda_h / (1 + lambda_h Delta) with
   lambda_h = mu p n and lambda_a = nu p n, is c > mu nu / (mu - nu) at
   c = 1 / (p n Delta).  At equality it is nu^2 - (1 + 2c) nu + c = 0,
   whose smaller root is the PSS attack threshold.  The neat bound is
   sufficient, so it never asks for less than the tight condition (by a
   factor 2 (y - 1) / ln y >= 2 with y = mu / nu). *)
let test_tight_condition () =
  let tight nu =
    let mu = 1. -. nu in
    mu *. nu /. (mu -. nu)
  in
  for i = 0 to 40 do
    let c = 10. ** ((float_of_int i /. 10.) -. 2.) in
    let nu = Bounds.pss_attack_nu ~c in
    close ~rtol:1e-12 ~atol:0.
      (Printf.sprintf "the attack threshold solves the quadratic at c = %g" c)
      c
      (((1. +. (2. *. c)) *. nu) -. (nu *. nu));
    close ~rtol:1e-9 ~atol:0.
      (Printf.sprintf "the attack threshold is the tight boundary at c = %g" c)
      c (tight nu)
  done;
  List.iter
    (fun nu ->
      let neat = Bounds.neat_c_min ~nu in
      if not (neat >= tight nu) then
        Alcotest.failf "nu = %g: neat %.17g below tight %.17g" nu neat
          (tight nu))
    ([ 1e-300; 1e-12; 1e-6; 0.5 -. 1e-9 ]
    @ List.init 499 (fun i -> float_of_int (i + 1) /. 1000.))

let suite =
  [
    case "neat c_min known values" test_neat_c_min_known_values;
    case "neat numax inverts c_min" test_neat_numax_inverts;
    case "neat numax limits" test_neat_numax_limits;
    case "PSS closed form" test_pss_closed_form;
    case "PSS attack threshold" test_pss_attack_nu;
    case "PSS exact near closed at paper scale" test_pss_exact_near_closed_at_scale;
    case "PSS exact condition sign" test_pss_consistency_exact_condition;
    case "Theorem 1 margin sign" test_theorem1_margin_sign;
    case "Theorem 1 delta1 slack" test_theorem1_delta1_shrinks_region;
    case "Theorem 1 converges to neat bound" test_theorem1_approaches_neat;
    case "Theorem 2 c_min" test_theorem2_c_min;
    case "Theorem 2 optimal eps1" test_theorem2_optimal_dominates;
    case "Theorem 2 converges to neat bound" test_theorem2_approaches_neat;
    case "flawed accounting ablation (DESIGN #3)" test_flawed_accounting_ablation;
  ]
  @ props
  @ [
      case "subnormal nu" test_subnormal_nu;
      case "tight condition: attack line and neat bound" test_tight_condition;
    ]
