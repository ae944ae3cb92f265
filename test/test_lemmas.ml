open Helpers
module Lemmas = Nakamoto_core.Lemmas
module Bounds = Nakamoto_core.Bounds
module Params = Nakamoto_core.Params

let mk ~nu ~delta ~n ~c = Params.of_c ~n ~delta ~nu ~c

let test_delta4_delta1_positive () =
  let l = log 3. in
  let delta4 = Lemmas.delta4_default ~eps1:0.5 ~eps2:0.1 ~l in
  check_true "delta4 positive" (delta4 > 0.);
  check_true "delta4 < l (Ineq. 73)" (delta4 < l);
  let delta1 = Lemmas.delta1_of ~delta4 ~eps1:0.5 ~l in
  check_true "delta1 positive" (delta1 > 0.);
  check_raises_invalid "bad eps1" (fun () ->
      ignore (Lemmas.delta4_default ~eps1:0. ~eps2:0.1 ~l));
  check_raises_invalid "bad l" (fun () ->
      ignore (Lemmas.delta4_default ~eps1:0.5 ~eps2:0.1 ~l:0.))

let test_delta4_matches_eq60 () =
  let eps1 = 0.3 and eps2 = 0.2 and l = log 4. in
  close "Eq. 60 verbatim"
    ((eps1 +. eps2) *. l /. (eps1 +. eps2 +. ((1. -. eps1) *. (l +. 1.))))
    (Lemmas.delta4_default ~eps1 ~eps2 ~l)

let test_pn_condition () =
  (* c chosen from the second branch of Ineq. 11 makes (50) hold exactly. *)
  let nu = 0.25 and delta = 1e4 and n = 1e4 and eps1 = 0.5 in
  let l = log 3. and mu = 0.75 in
  let c_branch2 = (l +. 1.) *. mu /. (eps1 *. delta *. l) in
  let p_at c = mk ~nu ~delta ~n ~c in
  check_true "holds at branch-2 c"
    (Lemmas.pn_condition_holds ~eps1 (p_at (c_branch2 *. 1.0001)));
  check_false "fails below"
    (Lemmas.pn_condition_holds ~eps1 (p_at (c_branch2 *. 0.999)))

let test_lemma2_implication () =
  (* Lemma 2: premise (66) forces conclusion (10) whenever 0 < p mu n < 1. *)
  let check nu delta n c delta1 =
    let p = mk ~nu ~delta ~n ~c in
    if Lemmas.lemma2_premise ~delta1 p then
      check_true
        (Printf.sprintf "L2 at nu=%g c=%g" nu c)
        (Lemmas.lemma2_conclusion ~delta1 p)
  in
  List.iter
    (fun (nu, delta, n, c, d1) -> check nu delta n c d1)
    [
      (0.25, 100., 1e3, 3., 0.1); (0.4, 10., 100., 5., 0.01);
      (0.1, 1e6, 1e5, 1., 0.5); (0.3, 1e13, 1e5, 2., 0.2);
    ]

let test_lemma4_bound_ordering () =
  (* Lemmas 5-7 assert bound(74) <= bound(77) <= bound(80) <= bound(83). *)
  List.iter
    (fun (nu, delta, n, c) ->
      let p = mk ~nu ~delta ~n ~c in
      let l = Params.log_ratio p in
      let delta4 = Lemmas.delta4_default ~eps1:0.4 ~eps2:0.2 ~l in
      let b74 = Lemmas.lemma4_c_bound ~delta4 p in
      let b77 = Lemmas.lemma5_c_bound ~delta4 p in
      let b80 = Lemmas.lemma6_c_bound ~delta4 p in
      let b83 = Lemmas.lemma8_c_bound ~delta4 p in
      check_true (Printf.sprintf "74<=77 at nu=%g" nu) (b74 <= b77 +. 1e-12);
      check_true (Printf.sprintf "77<=80 at nu=%g" nu) (b77 <= b80 +. 1e-12);
      check_true (Printf.sprintf "80<=83 at nu=%g" nu) (b80 <= b83 *. (1. +. 1e-12)))
    [ (0.25, 100., 1e3, 3.); (0.4, 1e4, 1e4, 8.); (0.05, 10., 100., 2.) ]

let test_proposition2 () =
  let p = mk ~nu:0.3 ~delta:50. ~n:1e3 ~c:3. in
  let l = Params.log_ratio p in
  check_true "holds for delta4 < l" (Lemmas.proposition2_holds ~delta4:(0.9 *. l) p);
  check_true "holds for small delta4" (Lemmas.proposition2_holds ~delta4:1e-6 p)

let test_lemma7 () =
  List.iter
    (fun (nu, delta) ->
      let p = mk ~nu ~delta ~n:1e4 ~c:3. in
      check_true
        (Printf.sprintf "L7 sandwich at nu=%g delta=%g" nu delta)
        (Lemmas.lemma7_holds p))
    [ (0.25, 10.); (0.4, 1e4); (0.01, 1e13); (0.49, 2.) ]

let test_lemma8 () =
  let p = mk ~nu:0.25 ~delta:1e4 ~n:1e4 ~c:3. in
  check_true "Ineq. 85" (Lemmas.lemma8_holds ~eps1:0.5 ~eps2:0.1 p);
  check_true "Ineq. 85 small eps" (Lemmas.lemma8_holds ~eps1:0.01 ~eps2:0.001 p)

let p2 = mk ~nu:0.25 ~delta:2. ~n:40. ~c:2.5

let test_min_stationary_and_pi_norm () =
  let p = mk ~nu:0.25 ~delta:4. ~n:40. ~c:2.5 in
  let log_min = Lemmas.log_min_stationary_fp p in
  check_true "min stationary positive but < 1" (log_min < 0.);
  let bound = Lemmas.pi_norm_bound p in
  check_true "pi norm bound >= 1" (bound >= 1.);
  close "consistent with Prop. 1" (exp (-0.5 *. log_min)) bound;
  (* The formula is the paper's expression verbatim (Eq. 98-99):
     (min pi_F) * (min {p mu n, abar})^(Delta+1).  Check it term by term
     against independently computed pieces. *)
  let alpha = Params.alpha p2 and abar = Params.abar p2 in
  let delta = 2. in
  let abar_d = abar ** delta in
  let min_pi_f = alpha *. (abar ** (delta -. 1.)) *. Float.min (1. -. abar_d) abar_d in
  let pmun = p2.Params.p *. Params.mu p2 *. p2.Params.n in
  let expected = min_pi_f *. (Float.min pmun abar ** (delta +. 1.)) in
  close ~rtol:1e-9 "Eq. 98-99 verbatim" expected
    (exp (Lemmas.log_min_stationary_fp p2));
  (* Note: on the collapsed {N, H1, Hm} alphabet used by the explicit
     chain, the rarest detailed symbol is Hm with probability
     alpha - alpha1, which can undercut min {p mu n, abar}; Prop. 1's
     simplified constant applies to the paper's own alphabet accounting.
     We therefore check the pi-norm direction that the proof uses. *)
  check_true "pi-norm bound is at least 1/sqrt(min pi_F)"
    (bound >= 1. /. sqrt min_pi_f)

let test_verify_chain_on_grid () =
  (* Theorem 3 as an executable statement: wherever (50) and (51) hold,
     every link of (52)-(59) holds. *)
  List.iter
    (fun (nu, delta, n, eps1, eps2) ->
      let c = Bounds.theorem2_c_min ~nu ~delta ~eps1 ~eps2 *. 1.000001 in
      let p = mk ~nu ~delta ~n ~c in
      let r = Lemmas.verify_chain ~eps1 ~eps2 p in
      if not r.all_hold then begin
        List.iter
          (fun (s : Lemmas.chain_step) ->
            if not s.holds then
              Printf.printf "FAILED STEP %s: %s\n" s.name s.detail)
          r.steps;
        Alcotest.failf "chain broke at nu=%g delta=%g n=%g" nu delta n
      end)
    [
      (0.25, 1e13, 1e5, 0.5, 0.1); (0.25, 1e3, 1e4, 0.5, 0.1);
      (0.4, 1e2, 1e3, 0.3, 0.01); (0.1, 1e6, 1e5, 0.7, 1.0);
      (0.49, 1e4, 1e6, 0.2, 0.5); (0.01, 10., 100., 0.9, 0.001);
      (0.33, 2., 10., 0.5, 0.5);
    ]

let test_verify_chain_validation () =
  let p = mk ~nu:0.25 ~delta:10. ~n:100. ~c:3. in
  check_raises_invalid "eps1 range" (fun () ->
      ignore (Lemmas.verify_chain ~eps1:1.0 ~eps2:0.1 p));
  check_raises_invalid "eps2 range" (fun () ->
      ignore (Lemmas.verify_chain ~eps1:0.5 ~eps2:0. p))

let props =
  let gen =
    Arbitrary.make
      ~print:(fun (nu, delta, n, eps1, eps2) ->
        Printf.sprintf
          "(nu %.17g, delta %.17g, n %.17g, eps1 %.17g, eps2 %.17g)" nu delta
          n eps1 eps2)
      Gen.(
        let* nu = float_range ~lo:0.02 ~hi:0.48 in
        let* log_delta = float_range ~lo:0.5 ~hi:12. in
        let* log_n = float_range ~lo:1. ~hi:5.5 in
        let* eps1 = float_range ~lo:0.05 ~hi:0.95 in
        let* eps2 = float_range ~lo:0.001 ~hi:2. in
        return (nu, 10. ** log_delta, 10. ** log_n, eps1, eps2))
  in
  [
    prop ~count:150 "Theorem 3 chain holds under its preconditions" gen
      (fun (nu, delta, n, eps1, eps2) ->
        let c = Bounds.theorem2_c_min ~nu ~delta ~eps1 ~eps2 *. 1.000001 in
        match mk ~nu ~delta ~n ~c with
        | exception Invalid_argument _ -> true (* implied p out of range *)
        | p ->
          let r = Lemmas.verify_chain ~eps1 ~eps2 p in
          r.all_hold);
    prop ~count:150 "delta4 stays below l" gen
      (fun (nu, _delta, _n, eps1, eps2) ->
        let l = log ((1. -. nu) /. nu) in
        let d4 = Lemmas.delta4_default ~eps1 ~eps2 ~l in
        d4 > 0. && d4 < l);
  ]

let suite =
  [
    case "delta4/delta1 constructions" test_delta4_delta1_positive;
    case "delta4 matches Eq. 60" test_delta4_matches_eq60;
    case "pn condition (Ineq. 50)" test_pn_condition;
    case "Lemma 2 implication" test_lemma2_implication;
    case "bound ordering (Lemmas 5-7)" test_lemma4_bound_ordering;
    case "Proposition 2" test_proposition2;
    case "Lemma 7 sandwich" test_lemma7;
    case "Lemma 8" test_lemma8;
    case "Proposition 1 min stationary" test_min_stationary_and_pi_norm;
    case "verify_chain on a grid" test_verify_chain_on_grid;
    case "verify_chain validation" test_verify_chain_validation;
  ]
  @ props
