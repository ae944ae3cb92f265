open Helpers
module Suffix_chain = Nakamoto_core.Suffix_chain
module Chain = Nakamoto_markov.Chain
module Round_state = Nakamoto_sim.Round_state

let test_state_indexing_bijective () =
  List.iter
    (fun delta ->
      for i = 0 to Suffix_chain.state_count ~delta - 1 do
        let s = Suffix_chain.state_of_index ~delta i in
        check_int
          (Printf.sprintf "roundtrip %d (delta %d)" i delta)
          i
          (Suffix_chain.index_of_state ~delta s)
      done)
    [ 1; 2; 5; 17 ];
  check_int "count" 11 (Suffix_chain.state_count ~delta:5);
  check_raises_invalid "bad index" (fun () ->
      ignore (Suffix_chain.state_of_index ~delta:3 7));
  check_raises_invalid "bad Recent" (fun () ->
      ignore (Suffix_chain.index_of_state ~delta:3 (Suffix_chain.Recent 3)))

let test_transition_rules () =
  let delta = 4 in
  let step = Suffix_chain.step ~delta in
  (* Rule 3: any recent/deep-recent + H -> Recent 0. *)
  check_true "recent + H" (step (Suffix_chain.Recent 2) ~h:true = Suffix_chain.Recent 0);
  check_true "deep-recent + H"
    (step (Suffix_chain.Deep_recent 3) ~h:true = Suffix_chain.Recent 0);
  (* Rule 2: Deep + H -> Deep_recent 0. *)
  check_true "deep + H" (step Suffix_chain.Deep ~h:true = Suffix_chain.Deep_recent 0);
  (* Rule 1: N increments the trailing run. *)
  check_true "recent + N" (step (Suffix_chain.Recent 1) ~h:false = Suffix_chain.Recent 2);
  check_true "deep-recent + N"
    (step (Suffix_chain.Deep_recent 0) ~h:false = Suffix_chain.Deep_recent 1);
  (* Rule 4: a Delta-th trailing N falls into Deep. *)
  check_true "recent overflow"
    (step (Suffix_chain.Recent (delta - 1)) ~h:false = Suffix_chain.Deep);
  check_true "deep-recent overflow"
    (step (Suffix_chain.Deep_recent (delta - 1)) ~h:false = Suffix_chain.Deep);
  check_true "deep + N stays" (step Suffix_chain.Deep ~h:false = Suffix_chain.Deep)

let test_build_structure () =
  let chain = Suffix_chain.build ~delta:5 ~alpha:0.3 in
  check_int "2 delta + 1 states" 11 (Chain.size chain);
  check_true "irreducible" (Chain.is_irreducible chain);
  check_true "ergodic (paper's claim)" (Chain.is_ergodic chain);
  check_raises_invalid "alpha 0" (fun () ->
      ignore (Suffix_chain.build ~delta:2 ~alpha:0.));
  check_raises_invalid "delta 0" (fun () ->
      ignore (Suffix_chain.build ~delta:0 ~alpha:0.5))

let test_closed_form_is_stationary () =
  List.iter
    (fun (delta, alpha) ->
      let chain = Suffix_chain.build ~delta ~alpha in
      let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
      let total = Array.fold_left ( +. ) 0. closed in
      close (Printf.sprintf "sums to 1 (d=%d a=%g)" delta alpha) 1. total;
      (* Eq. 37 must be an exact fixed point of the transition operator. *)
      let pushed = Chain.step_distribution chain closed in
      check_true "fixed point" (Chain.total_variation closed pushed < 1e-12);
      let solved = Chain.stationary_linear_solve chain in
      check_true "matches solve" (Chain.total_variation closed solved < 1e-10))
    [ (1, 0.5); (2, 0.1); (5, 0.23); (10, 0.04); (25, 0.7) ]

let test_eq37_values () =
  (* Spot-check the four formulas at delta = 3, alpha = 0.4. *)
  let delta = 3 and alpha = 0.4 in
  let abar = 0.6 in
  let pi = Suffix_chain.stationary_closed_form ~delta ~alpha in
  let idx s = Suffix_chain.index_of_state ~delta s in
  let abar_d = abar ** 3. in
  close "37a" (alpha *. (1. -. abar_d)) pi.(idx (Suffix_chain.Recent 0));
  close "37b" (alpha *. (1. -. abar_d) *. (abar ** 2.)) pi.(idx (Suffix_chain.Recent 2));
  close "37c" abar_d pi.(idx Suffix_chain.Deep);
  close "37d" (alpha *. abar_d *. abar) pi.(idx (Suffix_chain.Deep_recent 1))

let test_log_stationary_matches () =
  let delta = 6 and alpha = 0.15 in
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  let log_abar = log (1. -. alpha) in
  List.iter
    (fun s ->
      let expected = closed.(Suffix_chain.index_of_state ~delta s) in
      let got =
        exp
          (Suffix_chain.log_stationary ~delta:(float_of_int delta) ~log_abar
             ~state:s)
      in
      close "log matches linear" expected got)
    [
      Suffix_chain.Recent 0; Suffix_chain.Recent 5; Suffix_chain.Deep;
      Suffix_chain.Deep_recent 0; Suffix_chain.Deep_recent 5;
    ];
  check_raises_invalid "log_abar >= 0" (fun () ->
      ignore
        (Suffix_chain.log_stationary ~delta:3. ~log_abar:0.1
           ~state:Suffix_chain.Deep));
  check_raises_invalid "Recent out of range" (fun () ->
      ignore
        (Suffix_chain.log_stationary ~delta:3. ~log_abar:(-0.1)
           ~state:(Suffix_chain.Recent 3)))

let test_log_stationary_extreme_delta () =
  (* Works at the paper's Delta = 1e13 where the chain cannot be built. *)
  let v =
    Suffix_chain.log_stationary ~delta:1e13 ~log_abar:(-1e-13)
      ~state:Suffix_chain.Deep
  in
  close ~rtol:1e-6 "pi(Deep) = abar^Delta = e^-1" (-1.) v

let trace s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | 'N' -> Round_state.N
      | '1' -> Round_state.H 1
      | 'H' -> Round_state.H 2
      | _ -> assert false)

let test_classify_series_paper_example () =
  (* The paper's worked example (Section V-A): delta = 3, states
     H N H H N N H N N N; F_7..F_10 are Recent-class and then Deep. *)
  let classes = Suffix_chain.classify_series ~delta:3 (trace "1N11NN1NNN") in
  let at i = classes.(i - 1) in
  check_true "F7 = HN<=D-1 H" (at 7 = Some (Suffix_chain.Recent 0));
  check_true "F8 = ...N^1" (at 8 = Some (Suffix_chain.Recent 1));
  check_true "F9 = ...N^2" (at 9 = Some (Suffix_chain.Recent 2));
  check_true "F10 = HN>=D" (at 10 = Some Suffix_chain.Deep)

let test_classify_series_unknown_prefix () =
  let classes = Suffix_chain.classify_series ~delta:3 (trace "NN1NN1") in
  check_true "unknown before the second H" (classes.(4) = None);
  check_true "pinned at second H" (classes.(5) = Some (Suffix_chain.Recent 0));
  (* Deep also pins it. *)
  let classes2 = Suffix_chain.classify_series ~delta:2 (trace "1NNN") in
  check_true "pinned at Deep" (classes2.(2) = Some Suffix_chain.Deep);
  check_true "and stays classified" (classes2.(3) = Some Suffix_chain.Deep)

let test_classify_agrees_with_step () =
  (* Once classified, the series classification must evolve by `step`. *)
  let g = rng () in
  let states =
    Array.init 2000 (fun _ ->
        if Nakamoto_prob.Rng.float g < 0.3 then Round_state.H 1 else Round_state.N)
  in
  let classes = Suffix_chain.classify_series ~delta:4 states in
  let ok = ref true in
  for t = 1 to 1999 do
    match (classes.(t - 1), classes.(t)) with
    | Some prev, Some cur ->
      if
        cur
        <> Suffix_chain.step ~delta:4 prev ~h:(Round_state.is_h states.(t))
      then ok := false
    | None, _ | _, None -> ()
  done;
  check_true "classification evolves by the transition rules" !ok

let test_empirical_occupancy_matches_eq37 () =
  (* Long random walk on the real state process: state-class frequencies
     match the closed-form stationary distribution. *)
  let delta = 3 and alpha = 0.3 in
  let g = rng ~seed:77L () in
  let n = 300_000 in
  let states =
    Array.init n (fun _ ->
        if Nakamoto_prob.Rng.float g < alpha then Round_state.H 1 else Round_state.N)
  in
  let classes = Suffix_chain.classify_series ~delta states in
  let counts = Array.make (Suffix_chain.state_count ~delta) 0 in
  let classified = ref 0 in
  Array.iter
    (function
      | Some s ->
        incr classified;
        let i = Suffix_chain.index_of_state ~delta s in
        counts.(i) <- counts.(i) + 1
      | None -> ())
    classes;
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  Array.iteri
    (fun i expected ->
      let got = float_of_int counts.(i) /. float_of_int !classified in
      check_true
        (Printf.sprintf "state %d: %.4f vs %.4f" i got expected)
        (Float.abs (got -. expected) < 0.01))
    closed

let test_to_dot () =
  let dot = Suffix_chain.to_dot ~delta:2 ~alpha:0.25 in
  check_true "digraph" (contains_substring ~affix:"digraph" dot);
  check_true "labels" (contains_substring ~affix:"HN>=D" dot);
  check_true "H probability" (contains_substring ~affix:"H 0.25" dot);
  check_true "N probability" (contains_substring ~affix:"N 0.75" dot)

let props =
  [
    prop ~count:50 "closed form sums to 1"
      Arbitrary.(
        pair (int_range ~lo:1 ~hi:40 ()) (float_range ~lo:0.01 ~hi:0.99))
      (fun (delta, alpha) ->
        let pi = Suffix_chain.stationary_closed_form ~delta ~alpha in
        Float.abs (Array.fold_left ( +. ) 0. pi -. 1.) < 1e-9);
    prop ~count:50 "all transitions stay in range"
      Arbitrary.(
        triple (int_range ~lo:1 ~hi:20 ()) (int_range ~lo:0 ~hi:60 ()) bool)
      (fun (delta, i, h) ->
        let i = i mod Suffix_chain.state_count ~delta in
        let s = Suffix_chain.state_of_index ~delta i in
        let j =
          Suffix_chain.index_of_state ~delta (Suffix_chain.step ~delta s ~h)
        in
        j >= 0 && j < Suffix_chain.state_count ~delta);
  ]

let suite =
  [
    case "state indexing bijective" test_state_indexing_bijective;
    case "transition rules 1-4" test_transition_rules;
    case "build structure" test_build_structure;
    case "Eq. 37 is the stationary distribution" test_closed_form_is_stationary;
    case "Eq. 37 spot values" test_eq37_values;
    case "log stationary matches linear" test_log_stationary_matches;
    case "log stationary at Delta = 1e13" test_log_stationary_extreme_delta;
    case "classify: paper's worked example" test_classify_series_paper_example;
    case "classify: unknown prefix" test_classify_series_unknown_prefix;
    case "classify evolves by step" test_classify_agrees_with_step;
    case "empirical occupancy matches Eq. 37" test_empirical_occupancy_matches_eq37;
    case "DOT rendering (Figure 2)" test_to_dot;
  ]
  @ props
