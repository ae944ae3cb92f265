open Helpers
module Roots = Nakamoto_numerics.Roots

let root_of = function
  | Roots.Converged { root; _ } -> root
  | Roots.No_sign_change _ -> Alcotest.fail "no sign change"
  | Roots.Max_iterations _ -> Alcotest.fail "did not converge"

let test_bisect_basic () =
  let r = root_of (Roots.bisect ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. ()) in
  close ~rtol:1e-10 "sqrt 2" (sqrt 2.) r

let test_bisect_endpoint_root () =
  (match Roots.bisect ~f:(fun x -> x) ~lo:0. ~hi:1. () with
  | Roots.Converged { root; iterations } ->
    close "endpoint root" 0. root;
    check_int "no iterations needed" 0 iterations
  | _ -> Alcotest.fail "expected convergence");
  match Roots.bisect ~f:(fun x -> x -. 1.) ~lo:0. ~hi:1. () with
  | Roots.Converged { root; _ } -> close "hi endpoint root" 1. root
  | _ -> Alcotest.fail "expected convergence"

let test_bisect_no_sign_change () =
  match Roots.bisect ~f:(fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1. () with
  | Roots.No_sign_change { f_lo; f_hi; _ } ->
    check_true "both positive" (f_lo > 0. && f_hi > 0.)
  | _ -> Alcotest.fail "expected No_sign_change"

let test_bisect_validation () =
  check_raises_invalid "lo >= hi" (fun () ->
      ignore (Roots.bisect ~f:Fun.id ~lo:1. ~hi:1. ()));
  check_raises_invalid "non-finite" (fun () ->
      ignore (Roots.bisect ~f:Fun.id ~lo:nan ~hi:1. ()))

let test_brent_matches_bisect () =
  let f x = exp x -. 3. in
  let b = root_of (Roots.bisect ~f ~lo:0. ~hi:2. ()) in
  let br = root_of (Roots.brent ~f ~lo:0. ~hi:2. ()) in
  close ~rtol:1e-9 "brent = bisect" b br;
  close ~rtol:1e-9 "= log 3" (log 3.) br

let test_brent_hard_function () =
  (* A function with a flat region then a sharp rise. *)
  let f x = if x < 1. then -1e-8 else ((x -. 1.) ** 3.) -. 1e-8 in
  let r = root_of (Roots.brent ~tol:1e-10 ~f ~lo:0. ~hi:3. ()) in
  check_true "found root past the flat region" (r > 1.);
  close ~rtol:1e-2 "cube-root location" (1. +. (1e-8 ** (1. /. 3.))) r

let test_find_root_exn () =
  close ~rtol:1e-9 "find_root_exn" (log 2.)
    (Roots.find_root_exn ~f:(fun x -> exp x -. 2.) ~lo:0. ~hi:1. ());
  match Roots.find_root_exn ~f:(fun _ -> 1.) ~lo:0. ~hi:1. () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on no sign change"

let test_bracket_upward () =
  (match Roots.bracket_upward ~f:(fun x -> x -. 100.) ~lo:0. ~hi0:1. () with
  | Some (lo, hi) ->
    check_true "bracket straddles" (lo -. 100. < 0. && hi -. 100. > 0.)
  | None -> Alcotest.fail "expected a bracket");
  check_true "unbracketable returns None"
    (Roots.bracket_upward ~max_steps:5 ~f:(fun _ -> 1.) ~lo:0. ~hi0:1. () = None)

let props =
  [
    prop "bisect finds the root of monotone cubics"
      (Arbitrary.float_range ~lo:(-3.) ~hi:3.)
      (fun target ->
        let f x = ((x -. target) ** 3.) +. (x -. target) in
        match Roots.bisect ~f ~lo:(-10.) ~hi:10. () with
        | Roots.Converged { root; _ } -> Float.abs (root -. target) < 1e-9
        | _ -> false);
    prop "brent agrees with bisect on exp(x) - k"
      (Arbitrary.float_range ~lo:1.5 ~hi:50.)
      (fun k ->
        let f x = exp x -. k in
        let a = root_of (Roots.bisect ~f ~lo:0. ~hi:10. ()) in
        let b = root_of (Roots.brent ~f ~lo:0. ~hi:10. ()) in
        Float.abs (a -. b) < 1e-8);
  ]

let suite =
  [
    case "bisect basic" test_bisect_basic;
    case "bisect endpoint root" test_bisect_endpoint_root;
    case "bisect no sign change" test_bisect_no_sign_change;
    case "bisect validation" test_bisect_validation;
    case "brent matches bisect" test_brent_matches_bisect;
    case "brent hard function" test_brent_hard_function;
    case "find_root_exn" test_find_root_exn;
    case "bracket_upward" test_bracket_upward;
  ]
  @ props
