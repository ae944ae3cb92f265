(* The appendix proofs rest on a handful of calculus facts; each is
   machine-checked here on dense grids and random points, so the numeric
   lemma checkers in Lemmas are backed by the same arguments the paper
   uses.

   Appendix E (Proposition 2):  f(x) = x^(1/(2D)) - ln x / (2D) - 1 > 0
   for x > 1 (and f(1) = 0, f increasing).

   Appendix H (Lemma 7): with 0 < lambda < 1 and f(x) = x / (1 - lambda^x):
   - g(x) = 1 - (1 - x ln lambda) lambda^x > 0 on (0, 1]  (so f' > 0);
   - f'' > 0 on (0, 1]                                    (f' increasing);
   - 0 <= f'(1) <= 1  (the two log bounds on 1 - (1 + ln(1/lambda)) lambda);
   - the limit  f(x) -> 1 / ln (1/lambda)  as  x -> 0.

   Appendix G (Lemma 6): exp x > 1 + x for x > 0 (the single inequality
   step in Eq. 107). *)

open Helpers

(* ---------- Appendix E ---------- *)

(* Stable form: with u = ln x / (2D) > 0, f(x) = e^u - u - 1 = expm1 u - u,
   which stays nonnegative in floats even when u underflows the direct
   x ** (1/(2D)) evaluation. *)
let prop2_f ~two_delta x =
  let u = log x /. two_delta in
  Float.expm1 u -. u

let test_prop2_function_positive () =
  List.iter
    (fun two_delta ->
      close (Printf.sprintf "f(1) = 0 at 2D=%g" two_delta) 0.
        (prop2_f ~two_delta 1.);
      List.iter
        (fun x ->
          (* Strictly positive mathematically; in floats the quadratic
             term u^2/2 can underflow to exactly 0 for huge 2D. *)
          check_true
            (Printf.sprintf "f(%g) >= 0 at 2D=%g" x two_delta)
            (prop2_f ~two_delta x >= 0.);
          if two_delta <= 200. then
            check_true
              (Printf.sprintf "f(%g) > 0 at 2D=%g" x two_delta)
              (prop2_f ~two_delta x > 0.))
        [ 1.0001; 1.5; 2.; 10.; 1e3; 1e9 ])
    [ 2.; 8.; 200.; 2e13 ]

let test_prop2_monotone () =
  let two_delta = 10. in
  let xs = List.init 50 (fun i -> 1. +. (float_of_int i *. 0.37)) in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      check_true "f increasing" (prop2_f ~two_delta a <= prop2_f ~two_delta b);
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs xs

(* ---------- Appendix H ---------- *)

(* 1 - lambda^x = -expm1 (x ln lambda), stable for x ln lambda near 0. *)
let lemma7_f ~lambda x = x /. -.Float.expm1 (x *. log lambda)
let lemma7_g ~lambda x = 1. -. ((1. -. (x *. log lambda)) *. (lambda ** x))

let numeric_derivative f x =
  let h = 1e-6 *. Float.max 1e-3 (Float.abs x) in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

let test_lemma7_g_positive () =
  List.iter
    (fun lambda ->
      List.iter
        (fun x ->
          check_true
            (Printf.sprintf "g(%g) > 0 at lambda=%g" x lambda)
            (lemma7_g ~lambda x > 0.))
        [ 0.01; 0.1; 0.5; 1. ];
      close (Printf.sprintf "g(0) = 0 at lambda=%g" lambda) 0.
        (lemma7_g ~lambda 1e-12))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_lemma7_f_increasing_convex () =
  List.iter
    (fun lambda ->
      let f = lemma7_f ~lambda in
      let xs = List.init 20 (fun i -> 0.05 +. (float_of_int i *. 0.05)) in
      List.iter
        (fun x ->
          check_true
            (Printf.sprintf "f' > 0 at x=%g lambda=%g" x lambda)
            (numeric_derivative f x > 0.))
        xs;
      (* f' increasing: compare numeric derivatives along the grid. *)
      let ds = List.map (numeric_derivative f) xs in
      let rec mono = function
        | a :: (b :: _ as rest) ->
          check_true "f' increasing" (a <= b +. 1e-6);
          mono rest
        | [ _ ] | [] -> ()
      in
      mono ds)
    [ 0.2; 0.5; 0.8 ]

let test_lemma7_fprime_at_one_bounded () =
  List.iter
    (fun lambda ->
      let fp1 =
        (1. -. ((1. +. log (1. /. lambda)) *. lambda)) /. ((1. -. lambda) ** 2.)
      in
      check_true
        (Printf.sprintf "0 <= f'(1) <= 1 at lambda=%g (%.6f)" lambda fp1)
        (fp1 >= -1e-12 && fp1 <= 1. +. 1e-12))
    [ 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99 ]

let test_lemma7_limit () =
  (* lim_{x->0} f(x) = 1 / ln (1/lambda) (Eq. 116, L'Hospital). *)
  List.iter
    (fun lambda ->
      close ~rtol:1e-4
        (Printf.sprintf "limit at lambda=%g" lambda)
        (1. /. log (1. /. lambda))
        (lemma7_f ~lambda 1e-6))
    [ 0.1; 0.5; 0.9 ]

let test_lemma7_sandwich_from_calculus () =
  (* The conclusion (Eq. 82) re-derived from f directly:
     1/ln(1/lambda) <= f(1/(2D)) <= 1/ln(1/lambda) + 1/(2D). *)
  List.iter
    (fun (lambda, two_delta) ->
      let f = lemma7_f ~lambda (1. /. two_delta) in
      let base = 1. /. log (1. /. lambda) in
      let tol = 1e-12 *. Float.max 1. base in
      check_true "lower" (f >= base -. tol);
      check_true "upper" (f <= base +. (1. /. two_delta) +. tol))
    [ (0.2, 2.); (0.5, 8.); (0.9, 100.); (0.99, 2e6) ]

(* ---------- Appendix G ---------- *)

let test_lemma6_exp_inequality () =
  (* Checked as expm1 x > x: the direct exp x > 1 + x loses the strict
     inequality to rounding for tiny x. *)
  List.iter
    (fun x ->
      check_true (Printf.sprintf "expm1 %g > %g" x x) (Float.expm1 x > x))
    [ 1e-9; 0.1; 1.; 10. ]

let props =
  [
    prop "Prop 2's f positive for x > 1"
      Arbitrary.(
        pair (float_range ~lo:1.000001 ~hi:1e6) (float_range ~lo:2. ~hi:1e6))
      (fun (x, two_delta) -> prop2_f ~two_delta x >= 0.);
    prop "Lemma 7's g positive on (0, 1]"
      Arbitrary.(
        pair (float_range ~lo:0.01 ~hi:0.99) (float_range ~lo:0.001 ~hi:1.))
      (fun (lambda, x) -> lemma7_g ~lambda x > 0.);
    prop "Lemma 7's sandwich over random (lambda, 2D)"
      Arbitrary.(
        pair (float_range ~lo:0.01 ~hi:0.99) (float_range ~lo:2. ~hi:1e6))
      (fun (lambda, two_delta) ->
        let f = lemma7_f ~lambda (1. /. two_delta) in
        let base = 1. /. log (1. /. lambda) in
        let tol = 1e-9 *. Float.max 1. base in
        f >= base -. tol && f <= base +. (1. /. two_delta) +. tol);
  ]

let suite =
  [
    case "Prop 2: f positive (App. E)" test_prop2_function_positive;
    case "Prop 2: f monotone" test_prop2_monotone;
    case "Lemma 7: g > 0 (App. H)" test_lemma7_g_positive;
    case "Lemma 7: f increasing and convex" test_lemma7_f_increasing_convex;
    case "Lemma 7: f'(1) in [0, 1]" test_lemma7_fprime_at_one_bounded;
    case "Lemma 7: L'Hospital limit (Eq. 116)" test_lemma7_limit;
    case "Lemma 7: sandwich re-derived" test_lemma7_sandwich_from_calculus;
    case "Lemma 6: exp x > 1 + x (App. G)" test_lemma6_exp_inequality;
  ]
  @ props
