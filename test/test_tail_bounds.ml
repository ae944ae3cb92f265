open Helpers
module Tail_bounds = Nakamoto_prob.Tail_bounds
module Binomial = Nakamoto_prob.Binomial

let test_relative_entropy () =
  close "D(p||p) = 0" 0. (Tail_bounds.relative_entropy_bernoulli ~q:0.3 ~p:0.3);
  check_true "D > 0 off-diagonal"
    (Tail_bounds.relative_entropy_bernoulli ~q:0.4 ~p:0.3 > 0.);
  close "Eq. 48 shape"
    ((0.2 *. log (0.2 /. 0.1)) +. (0.8 *. log (0.8 /. 0.9)))
    (Tail_bounds.relative_entropy_bernoulli ~q:0.2 ~p:0.1);
  check_true "support mismatch infinite"
    (Tail_bounds.relative_entropy_bernoulli ~q:0.5 ~p:0. = infinity);
  close "0 ln 0 convention" 0.
    (Tail_bounds.relative_entropy_bernoulli ~q:0. ~p:0.);
  check_raises_invalid "bad input" (fun () ->
      ignore (Tail_bounds.relative_entropy_bernoulli ~q:1.5 ~p:0.5))

let test_binomial_upper_tail_dominates () =
  (* The bound must dominate the exact tail probability (Ineq. 49). *)
  let d = Binomial.create ~trials:500 ~p:0.05 in
  List.iter
    (fun delta ->
      let threshold =
        int_of_float (Float.round ((1. +. delta) *. Binomial.mean d)) - 1
      in
      let exact = Binomial.survival d threshold in
      let bound = Tail_bounds.binomial_upper_tail d ~delta in
      check_true
        (Printf.sprintf "bound %.3g >= exact %.3g at delta=%g" bound exact delta)
        (bound >= exact -. 1e-12))
    [ 0.2; 0.5; 1.0; 2.0 ];
  close "saturates at 1 when (1+d)p >= 1" 1.
    (Tail_bounds.binomial_upper_tail (Binomial.create ~trials:10 ~p:0.6) ~delta:1.);
  check_raises_invalid "negative delta" (fun () ->
      ignore (Tail_bounds.binomial_upper_tail d ~delta:(-0.1)))

let test_binomial_lower_tail_dominates () =
  let d = Binomial.create ~trials:500 ~p:0.05 in
  List.iter
    (fun delta ->
      let threshold =
        int_of_float (Float.round ((1. -. delta) *. Binomial.mean d))
      in
      let exact = Binomial.cdf d threshold in
      let bound = Tail_bounds.binomial_lower_tail d ~delta in
      check_true
        (Printf.sprintf "lower bound %.3g >= exact %.3g at delta=%g" bound exact
           delta)
        (bound >= exact -. 1e-12))
    [ 0.3; 0.5; 0.9 ];
  check_raises_invalid "delta > 1" (fun () ->
      ignore (Tail_bounds.binomial_lower_tail d ~delta:1.5))

let test_tail_decays_exponentially_in_horizon () =
  (* The essence of Ineqs. 19-20: the bound at horizon 2T is (at most) the
     square of the bound at horizon T. *)
  let bound t =
    Tail_bounds.log_binomial_upper_tail
      (Binomial.create ~trials:t ~p:0.01)
      ~delta:0.5
  in
  close ~rtol:1e-9 "log-linear in T" (2. *. bound 1000) (bound 2000);
  check_true "decreasing" (bound 2000 < bound 1000)

let test_hoeffding () =
  close "basic" (exp (-2. *. 100. *. 0.01))
    (Tail_bounds.hoeffding_upper_tail ~trials:100 ~mean_shift:0.1);
  close "zero shift" 1. (Tail_bounds.hoeffding_upper_tail ~trials:5 ~mean_shift:0.);
  check_raises_invalid "bad trials" (fun () ->
      ignore (Tail_bounds.hoeffding_upper_tail ~trials:0 ~mean_shift:0.1))

let test_markov_chain_lower_tail () =
  let bound ~horizon =
    Tail_bounds.markov_chain_lower_tail ~norm_phi_pi:10. ~stationary_rate:0.02
      ~horizon ~mixing_time:5. ~delta:0.5
  in
  check_true "in [0, 1]" (bound ~horizon:100 <= 1. && bound ~horizon:100 >= 0.);
  check_true "saturates at 1 for short horizons" (bound ~horizon:100 = 1.);
  check_true "decays with horizon"
    (bound ~horizon:4_000_000 < bound ~horizon:1_000_000);
  (* Ineq. 47's exponent: delta^2 T mu / (72 tau). *)
  let expected = 10. *. exp (-.(0.25 *. 4e6 *. 0.02) /. (72. *. 5.)) in
  close "exact shape" expected (bound ~horizon:4_000_000);
  check_raises_invalid "bad rate" (fun () ->
      ignore
        (Tail_bounds.markov_chain_lower_tail ~norm_phi_pi:1. ~stationary_rate:0.
           ~horizon:10 ~mixing_time:1. ~delta:0.5))

let test_pi_norm_bound () =
  close "Proposition 1 shape" 10. (Tail_bounds.pi_norm_bound ~min_stationary:0.01);
  check_raises_invalid "zero min" (fun () ->
      ignore (Tail_bounds.pi_norm_bound ~min_stationary:0.))

let props =
  [
    prop "relative entropy nonnegative"
      Arbitrary.(
        pair (float_range ~lo:0.01 ~hi:0.99) (float_range ~lo:0.01 ~hi:0.99))
      (fun (q, p) -> Tail_bounds.relative_entropy_bernoulli ~q ~p >= 0.);
    prop "upper tail bound within [0,1]"
      Arbitrary.(
        triple
          (int_range ~lo:1 ~hi:1000 ())
          (float_range ~lo:0.001 ~hi:0.5)
          (float_range ~lo:0. ~hi:3.))
      (fun (trials, p, delta) ->
        let b =
          Tail_bounds.binomial_upper_tail (Binomial.create ~trials ~p) ~delta
        in
        b >= 0. && b <= 1.);
  ]

let suite =
  [
    case "relative entropy (Eq. 48)" test_relative_entropy;
    case "binomial upper tail dominates exact (Ineq. 49)"
      test_binomial_upper_tail_dominates;
    case "binomial lower tail dominates exact" test_binomial_lower_tail_dominates;
    case "exponential decay in horizon (Ineqs. 19-20)"
      test_tail_decays_exponentially_in_horizon;
    case "hoeffding" test_hoeffding;
    case "markov chain lower tail (Ineq. 47)" test_markov_chain_lower_tail;
    case "pi norm bound (Prop. 1)" test_pi_norm_bound;
  ]
  @ props
