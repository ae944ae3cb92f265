open Helpers
module Chain = Nakamoto_markov.Chain
module Absorbing = Nakamoto_markov.Absorbing

(* Gambler's ruin on 0..n with up-probability q: absorption at n from k has
   the classic closed form ((r^k - 1) / (r^n - 1)) with r = (1-q)/q. *)
let ruin_chain ~n ~q =
  let rows =
    Array.init (n + 1) (fun i ->
        if i = 0 || i = n then [ (i, 1.) ]
        else [ (i + 1, q); (i - 1, 1. -. q) ])
  in
  Chain.create ~size:(n + 1) ~rows ()

let ruin_closed_form ~n ~q ~k =
  if q = 0.5 then float_of_int k /. float_of_int n
  else begin
    let r = (1. -. q) /. q in
    ((r ** float_of_int k) -. 1.) /. ((r ** float_of_int n) -. 1.)
  end

let test_gamblers_ruin_probabilities () =
  List.iter
    (fun (n, q) ->
      let chain = ruin_chain ~n ~q in
      let a = Absorbing.create ~chain ~absorbing:[ 0; n ] in
      for k = 0 to n do
        close ~rtol:1e-9
          (Printf.sprintf "ruin n=%d q=%g k=%d" n q k)
          (ruin_closed_form ~n ~q ~k)
          (Absorbing.absorption_probability a ~from:k ~into:n)
      done)
    [ (5, 0.5); (10, 0.3); (8, 0.7); (20, 0.45) ]

let test_absorption_distribution_sums_to_one () =
  let chain = ruin_chain ~n:7 ~q:0.4 in
  let a = Absorbing.create ~chain ~absorbing:[ 0; 7 ] in
  for k = 0 to 7 do
    let dist = Absorbing.absorption_distribution a ~from:k in
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. dist in
    close "distribution sums to 1" 1. total
  done

let test_expected_steps () =
  (* Symmetric ruin on 0..n from k: expected time k (n - k). *)
  let n = 10 in
  let chain = ruin_chain ~n ~q:0.5 in
  let a = Absorbing.create ~chain ~absorbing:[ 0; n ] in
  for k = 0 to n do
    close ~rtol:1e-9
      (Printf.sprintf "expected time from %d" k)
      (float_of_int (k * (n - k)))
      (Absorbing.expected_steps_to_absorption a ~from:k)
  done

let test_absorbing_state_edge_cases () =
  let chain = ruin_chain ~n:4 ~q:0.5 in
  let a = Absorbing.create ~chain ~absorbing:[ 0; 4 ] in
  close "from absorbing into itself" 1.
    (Absorbing.absorption_probability a ~from:4 ~into:4);
  close "from absorbing into other" 0.
    (Absorbing.absorption_probability a ~from:0 ~into:4);
  close "no steps when absorbed" 0. (Absorbing.expected_steps_to_absorption a ~from:0);
  check_int "transient states" 3 (List.length (Absorbing.transient_states a))

let test_validation () =
  let chain = ruin_chain ~n:4 ~q:0.5 in
  check_raises_invalid "empty absorbing set" (fun () ->
      ignore (Absorbing.create ~chain ~absorbing:[]));
  check_raises_invalid "duplicate" (fun () ->
      ignore (Absorbing.create ~chain ~absorbing:[ 0; 0 ]));
  check_raises_invalid "out of range" (fun () ->
      ignore (Absorbing.create ~chain ~absorbing:[ 9 ]));
  let a = Absorbing.create ~chain ~absorbing:[ 0; 4 ] in
  check_raises_invalid "target not absorbing" (fun () ->
      ignore (Absorbing.absorption_probability a ~from:1 ~into:2));
  (* A transient component that cannot reach absorption must be rejected. *)
  let disconnected =
    Chain.create ~size:3
      ~rows:[| [ (0, 1.) ]; [ (2, 1.) ]; [ (1, 1.) ] |]
      ()
  in
  check_raises_invalid "unreachable absorption" (fun () ->
      ignore (Absorbing.create ~chain:disconnected ~absorbing:[ 0 ]))

let test_monte_carlo_agreement () =
  let n = 8 and q = 0.35 in
  let chain = ruin_chain ~n ~q in
  let a = Absorbing.create ~chain ~absorbing:[ 0; n ] in
  let g = rng () in
  let trials = 50_000 in
  let wins = ref 0 in
  for _ = 1 to trials do
    let state = ref 3 in
    while !state <> 0 && !state <> n do
      state := if Nakamoto_prob.Rng.bernoulli g ~p:q then !state + 1 else !state - 1
    done;
    if !state = n then incr wins
  done;
  let empirical = float_of_int !wins /. float_of_int trials in
  let exact = Absorbing.absorption_probability a ~from:3 ~into:n in
  check_true
    (Printf.sprintf "MC %.4f vs exact %.4f" empirical exact)
    (Float.abs (empirical -. exact) < 0.01)

let props =
  [
    prop ~count:60 "probabilities are in [0,1] and monotone in start"
      Arbitrary.(pair (int_range ~lo:3 ~hi:15 ()) (float_range ~lo:0.2 ~hi:0.8))
      (fun (n, q) ->
        let chain = ruin_chain ~n ~q in
        let a = Absorbing.create ~chain ~absorbing:[ 0; n ] in
        let ps =
          List.init (n + 1) (fun k ->
              Absorbing.absorption_probability a ~from:k ~into:n)
        in
        List.for_all (fun p -> p >= -1e-12 && p <= 1. +. 1e-12) ps
        && List.for_all2 (fun a b -> a <= b +. 1e-9) ps (List.tl ps @ [ 1. ]));
  ]

let suite =
  [
    case "gambler's ruin closed form" test_gamblers_ruin_probabilities;
    case "absorption distribution sums to 1" test_absorption_distribution_sums_to_one;
    case "expected steps (symmetric walk)" test_expected_steps;
    case "absorbing-state edge cases" test_absorbing_state_edge_cases;
    case "validation" test_validation;
    case "Monte-Carlo agreement" test_monte_carlo_agreement;
  ]
  @ props
