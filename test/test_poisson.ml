open Helpers
module Poisson = Nakamoto_sim.Poisson

let cfg = { Poisson.lambda = 2.; mu = 0.7; delta = 0.4 }

let test_validation () =
  check_raises_invalid "lambda" (fun () ->
      Poisson.validate { cfg with lambda = 0. });
  check_raises_invalid "mu 0" (fun () -> Poisson.validate { cfg with mu = 0. });
  check_raises_invalid "mu > 1" (fun () -> Poisson.validate { cfg with mu = 1.5 });
  check_raises_invalid "delta" (fun () -> Poisson.validate { cfg with delta = 0. });
  Poisson.validate cfg

let test_rates () =
  (* lambda mu e^{-2 lambda mu delta} with lambda mu = 1.4, delta = 0.4. *)
  close "isolated rate" (1.4 *. exp (-1.12)) (Poisson.isolated_rate cfg);
  close "adversary rate" 0.6 (Poisson.adversary_rate cfg);
  check_true "mu = 1 margin infinite"
    (Poisson.consistency_margin { cfg with mu = 1. } = infinity)

let test_neat_bound_identity () =
  (* The continuous loner condition is algebraically the neat bound; the
     identity must hold on both sides of the threshold and at random
     points. *)
  List.iter
    (fun (lambda, mu, delta) ->
      check_true
        (Printf.sprintf "identity at lambda=%g mu=%g delta=%g" lambda mu delta)
        (Poisson.neat_bound_equivalent { Poisson.lambda; mu; delta }))
    [
      (2., 0.7, 0.4); (1., 0.75, 1.365) (* right at nu=0.25's bound *);
      (1., 0.75, 1.4); (1., 0.75, 1.3); (10., 0.51, 0.05); (0.2, 0.99, 3.);
    ]

let test_threshold_crossing () =
  (* Margin changes sign exactly at c = 2mu/ln(mu/nu). *)
  let mu = 0.75 in
  let c_star = 2. *. mu /. log (mu /. 0.25) in
  let at c = Poisson.consistency_margin { Poisson.lambda = 1.; mu; delta = c } in
  (* c = 1/(lambda delta) and lambda = 1, so delta = 1/c ... careful:
     delta here IS 1/c. *)
  let margin_of_c c = at (1. /. c) in
  check_true "above the bound" (margin_of_c (c_star *. 1.01) > 0.);
  check_true "below the bound" (margin_of_c (c_star *. 0.99) < 0.)

let test_simulation_matches_rates () =
  let rng = rng ~seed:123L () in
  let horizon = 200_000. in
  let r = Poisson.simulate ~rng cfg ~horizon in
  let per_time x = float_of_int x /. horizon in
  check_true
    (Printf.sprintf "arrival rate %.4f near lambda" (per_time r.arrivals))
    (Float.abs (per_time r.arrivals -. 2.) < 0.02);
  check_true "honest rate near lambda mu"
    (Float.abs (per_time r.honest_arrivals -. 1.4) < 0.02);
  check_true "adversary rate near lambda nu"
    (Float.abs (per_time r.adversary_arrivals -. 0.6) < 0.02);
  let expected = Poisson.isolated_rate cfg in
  check_true
    (Printf.sprintf "isolated rate %.4f near %.4f" (per_time r.isolated_honest)
       expected)
    (Float.abs (per_time r.isolated_honest -. expected) < 0.02);
  check_int "arrival split consistent" r.arrivals
    (r.honest_arrivals + r.adversary_arrivals);
  check_true "isolated a subset" (r.isolated_honest <= r.honest_arrivals)

let test_discrete_limit () =
  (* Fixing c = 1/(p n Delta) and growing Delta (shrinking p), the
     per-round discrete rate times Delta converges to the continuous
     per-delay rate mu/c e^{-2mu/c}. *)
  let c = 2.5 and mu = 0.75 and n = 1e5 in
  let continuous = mu /. c *. exp (-2. *. mu /. c) in
  List.iter
    (fun delta_rounds ->
      let p = 1. /. (c *. n *. float_of_int delta_rounds) in
      let discrete =
        Poisson.discrete_rate_per_time ~p ~n ~mu ~delta_rounds
        *. float_of_int delta_rounds
      in
      let rel = Float.abs (discrete -. continuous) /. continuous in
      check_true
        (Printf.sprintf "Delta=%d: discrete %.6f vs continuous %.6f" delta_rounds
           discrete continuous)
        (rel < 2. /. float_of_int delta_rounds +. 1e-3))
    [ 4; 16; 64; 1024; 100_000 ]

let test_simulate_validation () =
  check_raises_invalid "bad horizon" (fun () ->
      ignore (Poisson.simulate ~rng:(rng ()) cfg ~horizon:0.))

let props =
  [
    prop ~count:100 "neat-bound identity over random configs"
      Arbitrary.(
        triple
          (float_range ~lo:0.1 ~hi:10.)
          (float_range ~lo:0.51 ~hi:0.99)
          (float_range ~lo:0.05 ~hi:5.))
      (fun (lambda, mu, delta) ->
        Poisson.neat_bound_equivalent { Poisson.lambda; mu; delta });
  ]

let suite =
  [
    case "validation" test_validation;
    case "closed-form rates" test_rates;
    case "neat bound identity" test_neat_bound_identity;
    case "threshold crossing" test_threshold_crossing;
    case "simulation matches rates" test_simulation_matches_rates;
    case "discrete limit converges" test_discrete_limit;
    case "simulate validation" test_simulate_validation;
  ]
  @ props
