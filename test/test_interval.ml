open Helpers
module I = Nakamoto_numerics.Interval
module Certify = Nakamoto_core.Certify

let test_make_validation () =
  check_raises_invalid "lo > hi" (fun () -> ignore (I.make ~lo:2. ~hi:1.));
  check_raises_invalid "nan" (fun () -> ignore (I.make ~lo:nan ~hi:1.));
  check_raises_invalid "point nan" (fun () -> ignore (I.point nan));
  let x = I.make ~lo:1. ~hi:2. in
  close "lo" 1. (I.lo x);
  close "hi" 2. (I.hi x);
  close "width" 1. (I.width x)

let test_containment_basics () =
  let x = I.make ~lo:1. ~hi:2. in
  check_true "contains interior" (I.contains x 1.5);
  check_true "contains endpoints" (I.contains x 1. && I.contains x 2.);
  check_false "excludes outside" (I.contains x 2.1)

let contains_true_result op_interval true_value msg =
  check_true
    (Printf.sprintf "%s: %.17g in [%.17g, %.17g]" msg true_value
       (I.lo op_interval) (I.hi op_interval))
    (I.contains op_interval true_value)

let test_arithmetic_encloses () =
  let a = I.point 0.1 and b = I.point 0.2 in
  (* 0.1 + 0.2 <> 0.3 in floats; the enclosure must contain the float sum
     and be wider than a point. *)
  let sum = I.add a b in
  contains_true_result sum (0.1 +. 0.2) "add";
  check_true "widened" (I.width sum > 0.);
  contains_true_result (I.sub a b) (0.1 -. 0.2) "sub";
  contains_true_result (I.mul a b) (0.1 *. 0.2) "mul";
  contains_true_result (I.div a b) (0.1 /. 0.2) "div";
  contains_true_result (I.exp a) (exp 0.1) "exp";
  contains_true_result (I.log b) (log 0.2) "log";
  contains_true_result (I.neg a) (-0.1) "neg";
  contains_true_result (I.one_minus a) 0.9 "one_minus"

let test_mul_signs () =
  (* Mixed-sign multiplication picks the right corners. *)
  let a = I.make ~lo:(-2.) ~hi:3. and b = I.make ~lo:(-5.) ~hi:4. in
  let p = I.mul a b in
  check_true "lower corner" (I.lo p <= -15.);
  check_true "upper corner" (I.hi p >= 12.);
  List.iter
    (fun (x, y) -> contains_true_result p (x *. y) "corner product")
    [ (-2., -5.); (-2., 4.); (3., -5.); (3., 4.) ]

let test_div_zero_rejected () =
  check_raises_invalid "divisor spans zero" (fun () ->
      ignore (I.div (I.point 1.) (I.make ~lo:(-1.) ~hi:1.)));
  check_raises_invalid "log of nonpositive" (fun () ->
      ignore (I.log (I.make ~lo:0. ~hi:1.)))

let test_sign_predicates () =
  check_true "positive" (I.strictly_positive (I.make ~lo:0.1 ~hi:2.));
  check_false "straddles" (I.strictly_positive (I.make ~lo:(-0.1) ~hi:2.));
  check_true "negative" (I.strictly_negative (I.make ~lo:(-2.) ~hi:(-0.1)))

let test_certified_numax () =
  List.iter
    (fun c ->
      match Certify.certify_neat_numax ~c () with
      | Some cert ->
        (* The certificate is internally consistent... *)
        check_true "below margin positive" (I.strictly_positive cert.below_margin);
        check_true "above margin negative" (I.strictly_negative cert.above_margin);
        (* ...and brackets the bisection answer. *)
        close ~rtol:1e-6 (Printf.sprintf "answer at c=%g" c)
          (Nakamoto_core.Bounds.neat_numax ~c)
          cert.nu
      | None -> Alcotest.failf "certification failed at c = %g" c)
    [ 0.5; 1.; 2.; 3.; 10.; 100. ]

let test_certification_fails_when_too_tight () =
  (* A bracket narrower than the bisection tolerance cannot be proven. *)
  check_true "radius below solver tolerance fails"
    (Certify.certify_neat_numax ~radius:1e-16 ~c:3. () = None);
  check_raises_invalid "radius 0" (fun () ->
      ignore (Certify.certify_neat_numax ~radius:0. ~c:3. ()))

let test_certification_domain_edge () =
  (* Huge c puts nu_max within radius of 1/2: certification must decline
     rather than claim anything. *)
  check_true "domain edge declines"
    (Certify.certify_neat_numax ~radius:1e-2 ~c:1e6 () = None)

let props =
  [
    prop "interval ops enclose real arithmetic"
      Arbitrary.(
        pair (float_range ~lo:0.01 ~hi:10.) (float_range ~lo:0.01 ~hi:10.))
      (fun (a, b) ->
        let ia = I.point a and ib = I.point b in
        I.contains (I.add ia ib) (a +. b)
        && I.contains (I.sub ia ib) (a -. b)
        && I.contains (I.mul ia ib) (a *. b)
        && I.contains (I.div ia ib) (a /. b)
        && I.contains (I.log ia) (log a)
        && I.contains (I.pow ia b) (a ** b)
        && I.contains (I.log1p (I.point (1. /. (1. +. a)))) (log1p (1. /. (1. +. a))));
    prop ~count:60 "certification succeeds across c"
      (Arbitrary.float_range ~lo:0.3 ~hi:100.)
      (fun c -> Certify.certify_neat_numax ~c () <> None);
  ]

let test_exp_floor_and_log1p () =
  (* exp's outward rounding must never produce a negative lower endpoint
     (Float.pred underflows past zero) — a negative floor would poison
     every division it later feeds. *)
  let tiny = I.exp (I.make ~lo:(-800.) ~hi:(-700.)) in
  check_true "exp lower endpoint never negative" (I.lo tiny >= 0.);
  check_true "exp still contains the true value"
    (I.contains (I.exp (I.point (-2.))) (exp (-2.)));
  check_true "log1p contains the true value"
    (I.contains (I.log1p (I.point (-1e-4))) (log1p (-1e-4)));
  check_raises_invalid "log1p at the domain edge" (fun () ->
      ignore (I.log1p (I.point (-1.))))

let test_pow_and_clamp () =
  let r = I.make ~lo:0.2 ~hi:0.3 in
  check_true "pow contains an interior power"
    (I.contains (I.pow r 3.) (0.25 ** 3.));
  check_true "pow of exponent zero contains one" (I.contains (I.pow r 0.) 1.);
  check_true "pow lower endpoint never negative"
    (I.lo (I.pow (I.make ~lo:0. ~hi:1e-160) 2.) >= 0.);
  check_raises_invalid "pow rejects a negative base" (fun () ->
      ignore (I.pow (I.make ~lo:(-1.) ~hi:1.) 2.));
  check_raises_invalid "pow rejects a negative exponent" (fun () ->
      ignore (I.pow r (-1.)));
  (* clamp is exact: saturated endpoints land on the bounds themselves,
     no outward widening. *)
  let c = I.clamp ~lo:0. ~hi:1. (I.make ~lo:(-0.5) ~hi:2.) in
  check_true "clamp saturates exactly" (I.lo c = 0. && I.hi c = 1.);
  let c2 = I.clamp ~lo:0. ~hi:1. (I.make ~lo:0.25 ~hi:0.5) in
  check_true "clamp keeps interior endpoints" (I.lo c2 = 0.25 && I.hi c2 = 0.5);
  check_raises_invalid "clamp rejects inverted bounds" (fun () ->
      ignore (I.clamp ~lo:1. ~hi:0. (I.point 0.5)))

let suite =
  [
    case "make validation" test_make_validation;
    case "containment" test_containment_basics;
    case "exp floor and log1p" test_exp_floor_and_log1p;
    case "pow and clamp" test_pow_and_clamp;
    case "arithmetic encloses true results" test_arithmetic_encloses;
    case "mixed-sign multiplication" test_mul_signs;
    case "division by zero-spanning rejected" test_div_zero_rejected;
    case "sign predicates" test_sign_predicates;
    case "certified neat numax" test_certified_numax;
    case "too-tight radius fails honestly" test_certification_fails_when_too_tight;
    case "domain edge declines" test_certification_domain_edge;
  ]
  @ props
