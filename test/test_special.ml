open Helpers
module Special = Nakamoto_numerics.Special

let test_log_pow1p () =
  close "log ((1-p)^k)"
    (3000. *. log (1. -. 1e-4))
    (Special.log_pow1p ~base:(-1e-4) ~exponent:3000.);
  (* The whole point: exact where naive exponentiation underflows. *)
  let extreme = Special.log_pow1p ~base:(-1e-13) ~exponent:2e13 in
  close ~rtol:1e-6 "extreme exponent" (-2.) extreme;
  check_raises_invalid "base <= -1 rejected" (fun () ->
      Special.log_pow1p ~base:(-1.) ~exponent:2.)

let test_log_add_sub () =
  close "log_add" (log 5.) (Special.log_add (log 2.) (log 3.));
  close "log_add neg_inf identity" (log 2.) (Special.log_add neg_infinity (log 2.));
  close "log_sub" (log 1.) (Special.log_sub (log 3.) (log 2.));
  check_true "log_sub equal -> -inf"
    (Special.log_sub (log 2.) (log 2.) = neg_infinity);
  check_raises_invalid "log_sub lb > la" (fun () ->
      ignore (Special.log_sub (log 2.) (log 3.)))

let test_log_sum () =
  close "log_sum basic" (log 10.) (Special.log_sum [ log 1.; log 2.; log 3.; log 4. ]);
  check_true "log_sum empty" (Special.log_sum [] = neg_infinity);
  close "log_sum with -inf entries" (log 2.)
    (Special.log_sum [ neg_infinity; log 2.; neg_infinity ]);
  (* Max-shift keeps extreme magnitudes exact. *)
  close "log_sum extreme" (-1000. +. log 2.)
    (Special.log_sum [ -1000.; -1000. ])

let test_log_one_minus_exp () =
  (* For x = 1e-9, 1 - e^{-x} = x (1 - x/2 + ...); the naive
     log (1. -. exp (-1e-9)) loses eight digits and cannot serve as the
     reference. *)
  close "near zero"
    (log 1e-9 +. Special.log1p (-0.5e-9))
    (Special.log_one_minus_exp (-1e-9));
  close "far" (log (1. -. exp (-30.))) (Special.log_one_minus_exp (-30.));
  check_true "at 0 -> -inf" (Special.log_one_minus_exp 0. = neg_infinity);
  check_raises_invalid "positive rejected" (fun () ->
      ignore (Special.log_one_minus_exp 0.1))

let test_logit_sigmoid () =
  close "logit(1/2)" 0. (Special.logit 0.5);
  close "sigmoid(0)" 0.5 (Special.sigmoid 0.);
  close "sigmoid(-800) underflows gracefully" 0. (Special.sigmoid (-800.));
  close "sigmoid(800)" 1. (Special.sigmoid 800.);
  check_raises_invalid "logit domain" (fun () -> ignore (Special.logit 1.))

let test_log_factorial () =
  close "0!" 0. (Special.log_factorial 0);
  close "5!" (log 120.) (Special.log_factorial 5);
  close "20!" (log 2432902008176640000.) (Special.log_factorial 20);
  (* Stirling region must agree with the recurrence at the table edge. *)
  close ~rtol:1e-12 "300! via recurrence"
    (Special.log_factorial 299 +. log 300.)
    (Special.log_factorial 300);
  check_raises_invalid "negative" (fun () -> ignore (Special.log_factorial (-1)))

let test_log_binomial_coefficient () =
  close "C(10,3)" (log 120.) (Special.log_binomial_coefficient 10 3);
  close "C(n,0)" 0. (Special.log_binomial_coefficient 7 0);
  check_true "out of range is -inf"
    (Special.log_binomial_coefficient 5 6 = neg_infinity);
  check_true "negative k is -inf"
    (Special.log_binomial_coefficient 5 (-1) = neg_infinity)

let test_approx_equal () =
  check_true "exact" (Special.approx_equal 1. 1.);
  check_true "close" (Special.approx_equal 1. (1. +. 1e-12));
  check_false "far" (Special.approx_equal 1. 1.001);
  check_false "nan" (Special.approx_equal nan nan);
  check_true "inf = inf" (Special.approx_equal infinity infinity)

let test_clamp_and_probability () =
  close "clamp low" 0. (Special.clamp ~lo:0. ~hi:1. (-3.));
  close "clamp high" 1. (Special.clamp ~lo:0. ~hi:1. 3.);
  close "clamp inside" 0.4 (Special.clamp ~lo:0. ~hi:1. 0.4);
  check_raises_invalid "lo > hi" (fun () -> ignore (Special.clamp ~lo:1. ~hi:0. 0.5));
  check_true "probability" (Special.is_probability 0.3);
  check_false "nan not probability" (Special.is_probability nan);
  check_false "1.5 not probability" (Special.is_probability 1.5)

let test_geometric_series () =
  close "ratio 1/2, 4 terms" 1.875 (Special.geometric_series_sum ~ratio:0.5 ~terms:4);
  close "ratio 1" 7. (Special.geometric_series_sum ~ratio:1. ~terms:7);
  close "zero terms" 0. (Special.geometric_series_sum ~ratio:0.3 ~terms:0);
  check_raises_invalid "negative terms" (fun () ->
      ignore (Special.geometric_series_sum ~ratio:0.5 ~terms:(-1)))

let props =
  [
    prop "log_add commutes"
      Arbitrary.(
        pair (float_range ~lo:(-50.) ~hi:50.) (float_range ~lo:(-50.) ~hi:50.))
      (fun (a, b) ->
        Special.approx_equal (Special.log_add a b) (Special.log_add b a));
    prop "log_add = log of sum"
      Arbitrary.(
        pair (float_range ~lo:(-30.) ~hi:30.) (float_range ~lo:(-30.) ~hi:30.))
      (fun (a, b) ->
        Special.approx_equal ~rtol:1e-9 (Special.log_add a b)
          (log (exp a +. exp b)));
    prop "sigmoid inverts logit" (Arbitrary.float_range ~lo:0.001 ~hi:0.999)
      (fun x -> Special.approx_equal ~rtol:1e-9 x (Special.sigmoid (Special.logit x)));
    prop "geometric closed form vs fold"
      Arbitrary.(
        pair (float_range ~lo:0.01 ~hi:0.99) (int_range ~lo:0 ~hi:40 ()))
      (fun (ratio, terms) ->
        let direct = ref 0. and pow = ref 1. in
        for _ = 1 to terms do
          direct := !direct +. !pow;
          pow := !pow *. ratio
        done;
        Special.approx_equal ~rtol:1e-9
          (Special.geometric_series_sum ~ratio ~terms)
          !direct);
  ]

let test_log_gamma () =
  (* Exact at integers (Gamma n = (n-1)!) across both the recursion and
     the Stirling branch. *)
  List.iter
    (fun n ->
      close
        (Printf.sprintf "log_gamma %d" n)
        (Special.log_factorial (n - 1))
        (Special.log_gamma (float_of_int n)))
    [ 1; 2; 3; 7; 10; 40; 170 ];
  (* Gamma(1/2) = sqrt(pi), and the reflection-free half-integer ladder. *)
  close ~rtol:1e-9 "log_gamma 0.5" (0.5 *. log Float.pi)
    (Special.log_gamma 0.5);
  close ~rtol:1e-9 "log_gamma 1.5"
    (log (0.5 *. sqrt Float.pi))
    (Special.log_gamma 1.5);
  (match Special.log_gamma 0. with
  | _ -> Alcotest.fail "log_gamma 0 should raise"
  | exception Invalid_argument _ -> ())

let test_regularized_gamma () =
  (* a = 1: P(1, x) = 1 - exp(-x) exactly (exponential CDF). *)
  List.iter
    (fun x ->
      close ~rtol:1e-12
        (Printf.sprintf "P(1, %g)" x)
        (-.Special.expm1 (-.x))
        (Special.regularized_gamma_lower ~a:1. ~x);
      close ~rtol:1e-12
        (Printf.sprintf "Q(1, %g)" x)
        (exp (-.x))
        (Special.regularized_gamma_upper ~a:1. ~x))
    [ 1e-6; 0.1; 1.; 5.; 30. ];
  (* Boundaries and complementarity across the series/continued-fraction
     split at x = a + 1. *)
  close "P(a, 0)" 0. (Special.regularized_gamma_lower ~a:3.2 ~x:0.);
  close "Q(a, 0)" 1. (Special.regularized_gamma_upper ~a:3.2 ~x:0.);
  List.iter
    (fun (a, x) ->
      let p = Special.regularized_gamma_lower ~a ~x in
      let q = Special.regularized_gamma_upper ~a ~x in
      close ~rtol:1e-10
        (Printf.sprintf "P + Q = 1 at a=%g x=%g" a x)
        1. (p +. q))
    [ (0.5, 0.3); (2., 2.9); (2., 3.1); (10., 40.); (100., 80.) ];
  (* Q(a, x) for large x decays like the exponential tail: a known value,
     Q(5, 20) = e^{-20} sum_{k=0}^{4} 20^k / k! (Erlang survival). *)
  let erlang_survival =
    exp (-20.)
    *. List.fold_left ( +. ) 0.
         (List.init 5 (fun k ->
              (20. ** float_of_int k) /. exp (Special.log_factorial k)))
  in
  close ~rtol:1e-10 "Q(5, 20) Erlang" erlang_survival
    (Special.regularized_gamma_upper ~a:5. ~x:20.)

let suite =
  [
    case "log_pow1p" test_log_pow1p;
    case "log_gamma" test_log_gamma;
    case "regularized incomplete gamma" test_regularized_gamma;
    case "log_add/log_sub" test_log_add_sub;
    case "log_sum" test_log_sum;
    case "log_one_minus_exp" test_log_one_minus_exp;
    case "logit/sigmoid" test_logit_sigmoid;
    case "log_factorial" test_log_factorial;
    case "log_binomial_coefficient" test_log_binomial_coefficient;
    case "approx_equal" test_approx_equal;
    case "clamp/is_probability" test_clamp_and_probability;
    case "geometric_series_sum" test_geometric_series;
  ]
  @ props
