open Helpers
module Pattern = Nakamoto_sim.Pattern
module Round_state = Nakamoto_sim.Round_state

(* Compact trace notation: 'N' = no honest block, '1' = exactly one,
   'H' = two or more. *)
let trace s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | 'N' -> Round_state.N
      | '1' -> Round_state.H 1
      | 'H' -> Round_state.H 2
      | c -> Alcotest.failf "bad trace char %c" c)

let count ~delta s =
  let p = Pattern.create ~delta in
  Pattern.observe_all p (trace s);
  Pattern.count p

let test_minimal_pattern () =
  (* H N N 1 N N with delta = 2: F = HN^{>=2}, then H1, then N^2. *)
  check_int "exact minimal hit" 1 (count ~delta:2 "HNN1NN");
  check_int "missing final N" 0 (count ~delta:2 "HNN1N");
  check_int "H1 replaced by H2" 0 (count ~delta:2 "HNNHNN");
  check_int "gap too short" 0 (count ~delta:2 "HN1NN");
  check_int "no leading H" 0 (count ~delta:2 "NNN1NN")

let test_interrupted_window () =
  (* An H inside the trailing window kills the opportunity. *)
  check_int "window interrupted" 0 (count ~delta:2 "HNN1NH");
  check_int "window interrupted early" 0 (count ~delta:2 "HNN1HN")

let test_longer_gap_still_counts () =
  check_int "gap 5 >= delta 2" 1 (count ~delta:2 "HNNNNN1NN")

let test_chained_opportunities () =
  (* After an opportunity completes, its Delta N's serve as the next gap:
     H NN 1 NN 1 NN -> two opportunities (delta = 2). *)
  check_int "chained" 2 (count ~delta:2 "HNN1NN1NN")

let test_counts_are_per_completion_round () =
  (* Completion happens exactly Delta rounds after the H1; observing the
     trailing Ns one at a time must fire exactly once. *)
  let p = Pattern.create ~delta:3 in
  Pattern.observe_all p (trace "HNNN1");
  check_int "not yet" 0 (Pattern.count p);
  Pattern.observe p Round_state.N;
  Pattern.observe p Round_state.N;
  check_int "still not" 0 (Pattern.count p);
  Pattern.observe p Round_state.N;
  check_int "fires on the Delta-th N" 1 (Pattern.count p);
  Pattern.observe p Round_state.N;
  check_int "does not refire" 1 (Pattern.count p);
  check_int "rounds tracked" 9 (Pattern.rounds_seen p)

let test_delta_one () =
  (* delta = 1: pattern is H N 1 N. *)
  check_int "delta 1 hit" 1 (count ~delta:1 "HN1N");
  check_int "delta 1 consecutive" 2 (count ~delta:1 "HN1N1N");
  check_raises_invalid "delta 0" (fun () -> ignore (Pattern.create ~delta:0))

let test_rescan_agrees_on_cases () =
  List.iter
    (fun (delta, s) ->
      check_int
        (Printf.sprintf "rescan delta=%d %s" delta s)
        (Pattern.count_by_rescan ~delta (trace s))
        (count ~delta s))
    [
      (2, "HNN1NN"); (2, "HNN1NH"); (2, "HNN1NN1NN"); (1, "HN1N1N");
      (3, "HNNNN1NNN"); (2, "NNNN1NN"); (2, "");
    ]

let gen_trace =
  Arbitrary.make
    ~print:(fun (delta, s) -> Printf.sprintf "(%d, %S)" delta s)
    Gen.(
      let* delta = int_range ~lo:1 ~hi:4 in
      let* states =
        list
          ~len:(int_range ~lo:0 ~hi:400)
          (frequency [ (6, return 'N'); (3, return '1'); (1, return 'H') ])
      in
      return (delta, String.init (List.length states) (List.nth states)))

let props =
  [
    prop ~count:300 "streaming counter equals window rescan" gen_trace
      (fun (delta, s) ->
        count ~delta s = Pattern.count_by_rescan ~delta (trace s));
  ]

let suite =
  [
    case "minimal pattern" test_minimal_pattern;
    case "interrupted window" test_interrupted_window;
    case "longer gap" test_longer_gap_still_counts;
    case "chained opportunities" test_chained_opportunities;
    case "fires exactly at completion" test_counts_are_per_completion_round;
    case "delta = 1" test_delta_one;
    case "rescan agreement (named cases)" test_rescan_agrees_on_cases;
  ]
  @ props
