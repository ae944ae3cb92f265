open Helpers
module Params = Nakamoto_core.Params

let p0 = Params.create ~n:100. ~delta:10. ~p:0.001 ~nu:0.2

let test_validation () =
  check_raises_invalid "n < 4" (fun () ->
      ignore (Params.create ~n:3. ~delta:1. ~p:0.1 ~nu:0.1));
  check_raises_invalid "delta < 1" (fun () ->
      ignore (Params.create ~n:10. ~delta:0.5 ~p:0.1 ~nu:0.1));
  check_raises_invalid "p = 0" (fun () ->
      ignore (Params.create ~n:10. ~delta:1. ~p:0. ~nu:0.1));
  check_raises_invalid "p = 1" (fun () ->
      ignore (Params.create ~n:10. ~delta:1. ~p:1. ~nu:0.1));
  check_raises_invalid "nu = 1/2" (fun () ->
      ignore (Params.create ~n:10. ~delta:1. ~p:0.1 ~nu:0.5));
  check_raises_invalid "nu < 0" (fun () ->
      ignore (Params.create ~n:10. ~delta:1. ~p:0.1 ~nu:(-0.1)));
  (* nu = 0 is tolerated for baselines. *)
  ignore (Params.create ~n:10. ~delta:1. ~p:0.1 ~nu:0.)

let test_of_c_roundtrip () =
  let p = Params.of_c ~n:1000. ~delta:100. ~nu:0.3 ~c:2.5 in
  close "c roundtrip" 2.5 (Params.c p);
  close "p derived" (1. /. (2.5 *. 1000. *. 100.)) p.Params.p;
  check_raises_invalid "c <= 0" (fun () ->
      ignore (Params.of_c ~n:10. ~delta:1. ~nu:0.1 ~c:0.))

(* [make] is [create] without the raise: for every violated constraint
   it returns the message [create] raises, and Ok at a valid point. *)
let test_make_matches_create () =
  let raised f =
    match f () with
    | exception Invalid_argument m -> Error m
    | _ -> Ok ()
  in
  List.iter
    (fun (label, n, delta, p, nu) ->
      let made = Result.map ignore (Params.make ~n ~delta ~p ~nu) in
      let created = raised (fun () -> Params.create ~n ~delta ~p ~nu) in
      Alcotest.(check (result unit string)) label created made;
      check_true (label ^ " is an Error") (Result.is_error made))
    [
      ("n < 4", 3., 1., 0.1, 0.1); ("n = nan", nan, 1., 0.1, 0.1);
      ("delta < 1", 10., 0.5, 0.1, 0.1); ("delta = inf", 10., infinity, 0.1, 0.1);
      ("p = 0", 10., 1., 0., 0.1); ("p = nan", 10., 1., nan, 0.1);
      ("nu = 1/2", 10., 1., 0.1, 0.5); ("nu = nan", 10., 1., 0.1, nan);
    ];
  check_true "valid point is Ok"
    (Result.is_ok (Params.make ~n:10. ~delta:1. ~p:0.1 ~nu:0.));
  List.iter
    (fun c ->
      let made = Result.map ignore (Params.make_of_c ~n:10. ~delta:1. ~nu:0.1 ~c) in
      Alcotest.(check (result unit string))
        (Printf.sprintf "of_c at c = %g" c)
        (raised (fun () -> Params.of_c ~n:10. ~delta:1. ~nu:0.1 ~c))
        made)
    [ 0.; -1.; nan; infinity; 0.05; 2.5 ]

(* A NaN c is not positive: the typed c error, not a p-range one. *)
let test_of_c_nan () =
  Alcotest.check_raises "of_c nan"
    (Invalid_argument "Params.of_c: c must be positive") (fun () ->
      ignore (Params.of_c ~n:10. ~delta:1. ~nu:0.1 ~c:nan))

let test_derived_quantities () =
  close "mu" 0.8 (Params.mu p0);
  close "log ratio" (log 4.) (Params.log_ratio p0);
  (* alpha and abar against direct binomial forms (mu n = 80 trials). *)
  close "abar" (0.999 ** 80.) (Params.abar p0);
  close "alpha" (1. -. (0.999 ** 80.)) (Params.alpha p0);
  close "alpha1" (0.001 *. 80. *. (0.999 ** 79.)) (Params.alpha1 p0);
  close "alpha + abar = 1" 1. (Params.alpha p0 +. Params.abar p0);
  close "adversary rate" (0.001 *. 0.2 *. 100.) (Params.adversary_rate p0);
  close "honest rate" (0.001 *. 0.8 *. 100.) (Params.honest_rate p0);
  close "log_abar" (log (Params.abar p0)) (Params.log_abar p0);
  close "log_alpha1" (log (Params.alpha1 p0)) (Params.log_alpha1 p0)

let test_nu_zero_cases () =
  let p = Params.create ~n:10. ~delta:1. ~p:0.1 ~nu:0. in
  check_true "adversary rate log is -inf"
    (Params.log_adversary_rate p = neg_infinity);
  close "adversary rate 0" 0. (Params.adversary_rate p);
  check_raises_invalid "log_ratio needs nu > 0" (fun () ->
      ignore (Params.log_ratio p))

let test_extreme_scale_log_domain () =
  (* The paper's Figure 1 point: everything must stay finite in logs. *)
  let p = Params.figure1_point ~nu:0.25 ~c:3. in
  check_true "abar underflow-free" (Params.log_abar p < 0.);
  check_true "log_abar finite" (Float.is_finite (Params.log_abar p));
  check_true "log_alpha1 finite" (Float.is_finite (Params.log_alpha1 p));
  (* 2 Delta log abar ~ -2 mu / c: the dimensional identity behind the
     neat bound. *)
  close ~rtol:1e-6 "2D log abar = -2mu/c" (-2. *. 0.75 /. 3.)
    (2. *. p.Params.delta *. Params.log_abar p);
  (* At a tiny nu, where p nu is subnormal, p nu n taken left to right
     keeps only the few bits of p nu.  At c = 3 and Delta = 1e13 the rate
     is nu / 3e13; every nu whose p nu is normal keeps the left-to-right
     product's bits. *)
  let smallest = Float.min_float *. epsilon_float in
  List.iter
    (fun nu ->
      let p = Params.figure1_point ~nu ~c:3. in
      let expected = nu /. 3e13 in
      let rate = Params.adversary_rate p in
      if Float.abs (rate -. expected)
         > Float.max (4. *. epsilon_float *. expected) smallest
      then
        Alcotest.failf "adversary rate at nu = %g: %h, expected %h" nu rate
          expected;
      close ~rtol:1e-12
        (Printf.sprintf "log adversary rate at nu = %g" nu)
        (log nu -. log 3e13)
        (Params.log_adversary_rate p);
      let honest = Nakamoto_core.Conv_chain.convergence_rate p in
      match Nakamoto_core.Confirmation.assess_checked p with
      | Ok a ->
        close ~rtol:1e-12
          (Printf.sprintf "rate ratio at nu = %g" nu)
          (exp (log nu -. log 3e13 -. log honest))
          a.Nakamoto_core.Confirmation.rate_ratio
      | Error _ -> Alcotest.failf "assess_checked refused nu = %g" nu)
    [ 1e-292; 1e-300; 1e-305; 1e-306; 1e-310; 1e-320 ];
  List.iter
    (fun nu ->
      let p = Params.figure1_point ~nu ~c:3. in
      check_true
        (Printf.sprintf "bits kept at nu = %g" nu)
        (Params.adversary_rate p = p.Params.p *. nu *. p.Params.n))
    [ 0.25; 1e-9; 1e-200; 1e-285 ]

let test_of_sim_config () =
  let cfg = { Nakamoto_sim.Config.default with n = 40; nu = 0.25 } in
  let p = Params.of_sim_config cfg in
  close "n" 40. p.Params.n;
  close "realized nu" 0.25 p.Params.nu;
  close "p carried" cfg.Nakamoto_sim.Config.p p.Params.p

let props =
  let gen =
    Arbitrary.make
      ~print:(fun (n, delta, nu, c) ->
        Printf.sprintf "(n %.17g, delta %.17g, nu %.17g, c %.17g)" n delta nu c)
      Gen.(
        let* n = float_range ~lo:4. ~hi:1e6 in
        let* delta = float_range ~lo:1. ~hi:1e6 in
        let* nu = float_range ~lo:0.01 ~hi:0.49 in
        let* c = float_range ~lo:0.1 ~hi:100. in
        return (n, delta, nu, c))
  in
  [
    prop "alpha1 <= alpha <= 1" gen (fun (n, delta, nu, c) ->
        let p = Params.of_c ~n ~delta ~nu ~c in
        let a = Params.alpha p and a1 = Params.alpha1 p in
        a1 <= a +. 1e-15 && a <= 1.);
    prop "c of of_c" gen (fun (n, delta, nu, c) ->
        let p = Params.of_c ~n ~delta ~nu ~c in
        Float.abs (Params.c p -. c) /. c < 1e-9);
    prop "exp log_abar = abar" gen (fun (n, delta, nu, c) ->
        let p = Params.of_c ~n ~delta ~nu ~c in
        Nakamoto_numerics.Special.approx_equal (exp (Params.log_abar p))
          (Params.abar p));
  ]

let suite =
  [
    case "validation (Eqs. 1-3)" test_validation;
    case "of_c roundtrip" test_of_c_roundtrip;
    case "derived quantities (Eqs. 7-9)" test_derived_quantities;
    case "nu = 0 edge cases" test_nu_zero_cases;
    case "extreme scale stays in log domain" test_extreme_scale_log_domain;
    case "of_sim_config" test_of_sim_config;
    case "make returns create's messages" test_make_matches_create;
    case "of_c rejects a NaN c" test_of_c_nan;
  ]
  @ props
