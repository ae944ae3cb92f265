open Helpers
module Kiffer = Nakamoto_core.Kiffer_comparison
module Params = Nakamoto_core.Params

let p0 = Params.create ~n:100. ~delta:5. ~p:0.002 ~nu:0.25

let test_lumped_chain_shape () =
  let l = Kiffer.lumped_chain ~alpha:0.3 ~delta:4 in
  check_int "two states" 2 (Nakamoto_markov.Chain.size l.chain);
  check_true "ergodic" (Nakamoto_markov.Chain.is_ergodic l.chain);
  check_raises_invalid "bad alpha" (fun () ->
      ignore (Kiffer.lumped_chain ~alpha:0. ~delta:4));
  check_raises_invalid "bad delta" (fun () ->
      ignore (Kiffer.lumped_chain ~alpha:0.3 ~delta:0))

let test_lumping_error_positive () =
  (* The paper's point: two states cannot reproduce the suffix structure.
     The lumped Quiet mass differs from abar^Delta whenever alpha is
     non-negligible. *)
  let err = Kiffer.lumping_error ~alpha:0.3 ~delta:4 in
  check_true (Printf.sprintf "visible error %.4f" err) (err > 0.01);
  (* And shrinks as alpha -> 0 (rare events hide the structure). *)
  let small = Kiffer.lumping_error ~alpha:0.001 ~delta:4 in
  check_true "vanishes for rare H" (small < err /. 10.)

let test_exact_quiet_is_eq37c () =
  let delta = 6 and alpha = 0.2 in
  let exact = Kiffer.exact_quiet_probability ~alpha ~delta in
  close "matches Eq. 37c" (0.8 ** 6.) exact;
  (* And matches the full suffix chain's Deep mass. *)
  let pi = Nakamoto_core.Suffix_chain.stationary_closed_form ~delta ~alpha in
  close "matches suffix chain"
    pi.(Nakamoto_core.Suffix_chain.index_of_state ~delta Nakamoto_core.Suffix_chain.Deep)
    exact

let test_waiting_times () =
  close "correct ell" (1. /. Params.alpha p0) (Kiffer.ell_correct p0);
  close "flawed ell" (1. /. (0.002 *. 0.75 *. 100.)) (Kiffer.ell_flawed p0);
  (* 1/alpha >= 1/(p mu n): multi-block rounds make H-rounds rarer than
     blocks. *)
  check_true "correct waits longer" (Kiffer.ell_correct p0 >= Kiffer.ell_flawed p0);
  check_true "ratio <= 1" (Kiffer.waiting_time_ratio p0 >= 1.)

let test_rate_overstatement () =
  check_true "flawed rate dominates" (Kiffer.flawed_rate p0 >= Kiffer.correct_rate p0);
  (* The correct renewal rate must approximate the true per-round rate
     abar^2D alpha1 (they differ by the renewal approximation only). *)
  let true_rate = Nakamoto_core.Conv_chain.convergence_rate p0 in
  let renewal = Kiffer.correct_rate p0 in
  check_true
    (Printf.sprintf "renewal %.3e within 2x of exact %.3e" renewal true_rate)
    (renewal > true_rate /. 2. && renewal < true_rate *. 2.)

let test_table () =
  let t = Kiffer.to_table [ p0; Params.create ~n:50. ~delta:3. ~p:0.01 ~nu:0.2 ] in
  check_int "two rows" 2 (Nakamoto_numerics.Table.row_count t)

let props =
  [
    prop ~count:80 "flawed >= correct everywhere"
      Arbitrary.(
        pair (float_range ~lo:0.05 ~hi:0.45) (float_range ~lo:0.0005 ~hi:0.05))
      (fun (nu, p) ->
        let params = Params.create ~n:100. ~delta:4. ~p ~nu in
        Kiffer.flawed_rate params >= Kiffer.correct_rate params -. 1e-15);
  ]

let suite =
  [
    case "lumped chain shape" test_lumped_chain_shape;
    case "lumping error is real (critique #1)" test_lumping_error_positive;
    case "exact quiet mass = Eq. 37c" test_exact_quiet_is_eq37c;
    case "waiting times (critique #2)" test_waiting_times;
    case "rate overstatement" test_rate_overstatement;
    case "comparison table" test_table;
  ]
  @ props
