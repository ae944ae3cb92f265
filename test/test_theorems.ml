open Helpers
module Theorem1 = Nakamoto_core.Theorem1
module Theorem2 = Nakamoto_core.Theorem2
module Bounds = Nakamoto_core.Bounds
module Params = Nakamoto_core.Params
module Conv_chain = Nakamoto_core.Conv_chain
module Table1 = Nakamoto_core.Table1

let test_constants_eq23 () =
  let k = Theorem1.constants ~delta1:0.7 in
  let third = 1.7 ** (1. /. 3.) in
  close "delta2" (1. -. (1. /. third)) k.delta2;
  close "delta3" (third -. 1.) k.delta3;
  close "gap factor" ((third *. third) -. third) k.gap_factor;
  (* The defining property: (1-d2)(1+d1) - (1+d3) equals the gap factor. *)
  close "Ineq. 24 identity"
    (((1. -. k.delta2) *. 1.7) -. (1. +. k.delta3))
    k.gap_factor;
  check_true "all positive" (k.delta2 > 0. && k.delta3 > 0. && k.gap_factor > 0.);
  check_true "delta2 < 1 (needed by Ineq. 19)" (k.delta2 < 1.);
  check_raises_invalid "delta1 = 0" (fun () ->
      ignore (Theorem1.constants ~delta1:0.))

let test_guarantee_shape () =
  let p = Params.create ~n:50. ~delta:3. ~p:0.002 ~nu:0.2 in
  check_true "condition holds here" (Theorem1.holds p);
  let g = Theorem1.guarantee ~delta1:0.2 ~horizon:100_000 ~mixing_time:30. p in
  close "E C" (Conv_chain.expected_convergence_count p ~horizon:100_000)
    g.expected_convergence;
  close "E A" (Conv_chain.expected_adversary_blocks p ~horizon:100_000)
    g.expected_adversary;
  check_true "C exceeds A in expectation (Ineq. 18)"
    (g.expected_convergence > g.expected_adversary);
  check_true "failure bound in [0,1]"
    (g.failure_bound >= 0. && g.failure_bound <= 1.);
  check_true "gap positive" (g.expected_gap > 0.);
  check_raises_invalid "bad horizon" (fun () ->
      ignore (Theorem1.guarantee ~delta1:0.2 ~horizon:0 ~mixing_time:1. p))

let test_guarantee_improves_with_horizon () =
  (* Theorem 1's constants are weak (the 72 tau of Ineq. 47, a squared
     delta2): a generous delta1 and long horizons are needed before the
     bound drops below its saturation at 1 — faithful to the theorem. *)
  let p = Params.create ~n:50. ~delta:3. ~p:0.002 ~nu:0.2 in
  let g t = Theorem1.guarantee ~delta1:5. ~horizon:t ~mixing_time:30. p in
  let small = g 1_000_000 and large = g 100_000_000 in
  check_true "failure probability shrinks"
    (large.failure_bound < small.failure_bound);
  check_true "eventually negligible" (large.failure_bound < 1e-6)

let test_guarantee_uses_real_mixing_time () =
  (* Wire in the explicit chain's measured 1/8-mixing time. *)
  let p = Params.create ~n:50. ~delta:2. ~p:0.002 ~nu:0.2 in
  let ex = Conv_chain.build_explicit ~delta:2 p in
  match Nakamoto_markov.Chain.mixing_time ex.chain with
  | None -> Alcotest.fail "the ergodic chain must mix"
  | Some tau ->
    check_true "mixing time sane" (tau > 0 && tau < 10_000);
    let g =
      Theorem1.guarantee ~delta1:5. ~horizon:100_000_000
        ~mixing_time:(float_of_int tau) p
    in
    check_true "guarantee kicks in at large T" (g.failure_bound < 0.01)

let test_theorem2_condition () =
  (* eps1 inflates the threshold by (1+eps2)/(1-eps1); keep it small. *)
  let p = Params.of_c ~n:1e5 ~delta:1e13 ~nu:0.25 ~c:3. in
  check_true "holds at c = 3 (threshold 1.37 x 1.12)"
    (Theorem2.condition_holds ~eps1:0.1 ~eps2:0.01 p);
  check_false "fails with heavy eps1 inflation at c = 3"
    (Theorem2.condition_holds ~eps1:0.6 ~eps2:0.5 p);
  let tight = Params.of_c ~n:1e5 ~delta:1e13 ~nu:0.25 ~c:1.3 in
  check_false "fails below the neat bound"
    (Theorem2.condition_holds ~eps1:0.1 ~eps2:0.01 tight)

let test_regime_validation () =
  check_raises_invalid "delta1+delta2 >= 1" (fun () ->
      ignore (Theorem2.regime ~delta:1e13 ~delta1:0.5 ~delta2:0.5));
  check_raises_invalid "nonpositive" (fun () ->
      ignore (Theorem2.regime ~delta:1e13 ~delta1:0. ~delta2:0.5));
  check_raises_invalid "delta < 2" (fun () ->
      ignore (Theorem2.regime ~delta:1. ~delta1:0.1 ~delta2:0.5))

let test_remark1_first_regime () =
  (* Paper: delta1 = 1/6, delta2 = 1/2 at Delta = 1e13 gives
     1e-63 <= nu <= 0.5 - 1e-7 and inflation 1 + 5e-5. *)
  match Theorem2.remark1_rows () with
  | [ r1; r2 ] ->
    let log10 x = x /. log 10. in
    check_true "nu_lo ~ 1e-63"
      (Float.abs (log10 r1.log_nu_lo +. 64.) < 1.);
    check_true "1/2 - nu_hi ~ 1e-7"
      (r1.half_minus_nu_hi > 1e-8 && r1.half_minus_nu_hi < 1e-6);
    check_true "inflation ~ 1 + 5e-5"
      (r1.inflation -. 1. > 1e-5 && r1.inflation -. 1. < 1e-4);
    (* Second regime: 1e-18, 0.5 - 1e-9, 1 + 2e-3. *)
    check_true "nu_lo ~ 1e-18"
      (Float.abs (log10 r2.log_nu_lo +. 18.) < 1.);
    check_true "1/2 - nu_hi ~ 1e-9"
      (r2.half_minus_nu_hi > 1e-10 && r2.half_minus_nu_hi < 1e-8);
    check_true "inflation ~ 1 + 2e-3"
      (r2.inflation -. 1. > 1e-3 && r2.inflation -. 1. < 3e-3)
  | _ -> Alcotest.fail "expected two regimes"

let test_regime_algebra_eqs_87_94 () =
  (* The Section VI-B derivation, step by step, at delta = 1e13 with the
     paper's first regime (delta1 = 1/6, delta2 = 1/2). *)
  let delta = 1e13 and delta1 = 1. /. 6. and delta2 = 1. /. 2. in
  let r = Theorem2.regime ~delta ~delta1 ~delta2 in
  let check_at nu =
    let mu = 1. -. nu in
    let l = log (mu /. nu) in
    (* Eq. 87: nu >= nu_lo implies l <= Delta^delta1. *)
    check_true "Eq. 87" (l <= (delta ** delta1) +. 1e-9);
    (* Eq. 88-89: nu <= nu_hi implies l >= 1/(Delta^delta2 - 1), hence
       (l+1)/(Delta l) <= Delta^(delta2-1). *)
    check_true "Eq. 88" (l >= 1. /. ((delta ** delta2) -. 1.) -. 1e-15);
    check_true "Eq. 89" ((l +. 1.) /. (delta *. l) <= (delta ** (delta2 -. 1.)) +. 1e-18);
    (* Eq. 91: with eps1 = Delta^(delta1+delta2-1), the second branch of
       Ineq. 11 is dominated by the first. *)
    let eps1 = delta ** (delta1 +. delta2 -. 1.) in
    check_true "Eq. 91"
      (2. *. mu /. l > (l +. 1.) *. mu /. (eps1 *. delta *. l));
    (* Eq. 93: 1/Delta < (2 mu / l) Delta^(delta1 - 1). *)
    check_true "Eq. 93"
      (1. /. delta < 2. *. mu /. l *. (delta ** (delta1 -. 1.)))
  in
  (* Points inside the regime's nu range (its extremes are ~1e-63 and
     0.5 - 1e-7). *)
  List.iter check_at [ 1e-50; 1e-10; 0.1; 0.25; 0.4; 0.499 ];
  (* And the packaged inflation matches its definition. *)
  close "inflation definition"
    ((1. +. (delta ** (delta1 -. 1.)))
    /. (1. -. (delta ** (delta1 +. delta2 -. 1.))))
    r.inflation

let test_inflated_bound_close_to_neat () =
  let r = List.hd (Theorem2.remark1_rows ()) in
  let nu = 0.3 in
  let neat = Theorem2.consistency_c_threshold ~nu in
  let inflated = Theorem2.neat_bound_with_inflation ~nu ~eps2:1e-9 r in
  check_true "inflated barely above neat"
    (inflated > neat && inflated < neat *. 1.001)

let test_table1 () =
  let p = Params.bitcoin_like in
  check_true "identities hold" (Table1.identities_hold p);
  let rendered = Nakamoto_numerics.Table.render (Table1.for_params p) in
  check_true "has alpha row" (contains_substring ~affix:"alpha" rendered);
  check_true "has c row" (contains_substring ~affix:"delays per block" rendered);
  check_int "11 rows" 11
    (Nakamoto_numerics.Table.row_count (Table1.for_params p))

let props =
  [
    prop "Table I identities hold everywhere"
      Arbitrary.(
        pair (float_range ~lo:0.01 ~hi:0.49) (float_range ~lo:0.2 ~hi:50.))
      (fun (nu, c) ->
        Table1.identities_hold (Params.of_c ~n:1e4 ~delta:1e4 ~nu ~c));
    prop "Theorem 2 condition iff c >= c_min"
      Arbitrary.(
        pair (float_range ~lo:0.05 ~hi:0.45) (float_range ~lo:0.5 ~hi:50.))
      (fun (nu, c) ->
        let p = Params.of_c ~n:1e5 ~delta:1e10 ~nu ~c in
        Theorem2.condition_holds ~eps1:0.5 ~eps2:0.1 p
        = (c >= Bounds.theorem2_c_min ~nu ~delta:1e10 ~eps1:0.5 ~eps2:0.1));
  ]

let suite =
  [
    case "constants (Eq. 23)" test_constants_eq23;
    case "guarantee ingredients" test_guarantee_shape;
    case "guarantee improves with horizon" test_guarantee_improves_with_horizon;
    case "guarantee with measured mixing time" test_guarantee_uses_real_mixing_time;
    case "Theorem 2 condition" test_theorem2_condition;
    case "regime validation" test_regime_validation;
    case "Remark 1 regimes match the paper" test_remark1_first_regime;
    case "regime algebra (Eqs. 87-94)" test_regime_algebra_eqs_87_94;
    case "inflated bound close to neat" test_inflated_bound_close_to_neat;
    case "Table I" test_table1;
  ]
  @ props
