(* Self-tests of the property engine: deterministic replay, shrinking
   quality, and the statistical assertion kit's calibration. *)

open Helpers
module Rng = Nakamoto_prob.Rng
module Stats = Nakamoto_prob.Stats

let test_generation_deterministic_by_path () =
  let gen =
    P.Gen.triple
      (P.Gen.int_range ~lo:0 ~hi:1_000_000)
      (P.Gen.float_range ~lo:(-4.) ~hi:9.)
      (P.Gen.list ~len:(P.Gen.int_range ~lo:0 ~hi:20) P.Gen.bool)
  in
  let draw path = gen (Rng.of_path ~seed:99L path) in
  check_true "same path, same value" (draw [ 0; 7 ] = draw [ 0; 7 ]);
  check_true "different path, different value" (draw [ 0; 7 ] <> draw [ 0; 8 ])

let test_generator_ranges () =
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 2_000 do
    let x = P.Gen.int_range ~lo:(-3) ~hi:17 rng in
    check_true "int in range" (x >= -3 && x <= 17);
    let f = P.Gen.float_range ~lo:2.5 ~hi:2.75 rng in
    check_true "float in range" (f >= 2.5 && f < 2.75);
    let lf = P.Gen.log_float_range ~lo:0.01 ~hi:100. rng in
    check_true "log float in range" (lf >= 0.01 && lf <= 100.)
  done;
  (* A log-uniform draw lands below the geometric midpoint half the
     time; a uniform one over [0.01, 100] almost never does. *)
  let below = ref 0 in
  for _ = 1 to 1_000 do
    if P.Gen.log_float_range ~lo:0.01 ~hi:100. rng < 1. then incr below
  done;
  check_true
    (Printf.sprintf "log-uniform median near geometric mean (%d/1000)" !below)
    (!below > 400 && !below < 600)

let test_oneof_and_frequency_cover () =
  let rng = Rng.create ~seed:6L in
  let seen = Array.make 3 false in
  for _ = 1 to 200 do
    seen.(P.Gen.oneof_value [ 0; 1; 2 ] rng) <- true
  done;
  check_true "all alternatives generated" (Array.for_all Fun.id seen);
  (* Zero-weight alternatives never fire. *)
  for _ = 1 to 200 do
    check_int "zero weight never drawn" 1
      (P.Gen.frequency [ (0, P.Gen.return 0); (5, P.Gen.return 1) ] rng)
  done

let run_expecting_failure ~name ?count arb body =
  match P.Property.check ?count ~name arb body with
  | () -> Alcotest.failf "%s: expected the property to fail" name
  | exception P.Property.Failed f -> f

let test_failure_reports_seed_and_path () =
  let f =
    run_expecting_failure ~name:"fails at 100+"
      (P.Arbitrary.int_range ~lo:0 ~hi:10_000 ())
      (fun x -> if x >= 100 then failwith "too big")
  in
  check_true "path is the failing trial index" (List.length f.path = 1);
  let msg = P.Property.failure_message f in
  check_true "message mentions replay"
    (contains_substring ~affix:"PROPTEST_SEED=42" msg
    && contains_substring ~affix:"PROPTEST_REPLAY=" msg);
  check_true
    (Printf.sprintf "replay line names test/prop/prop_main.exe:\n%s" msg)
    (contains_substring ~affix:"dune exec test/prop/prop_main.exe -- test" msg);
  (* Replaying the reported (seed, path) regenerates a failing input. *)
  let rng =
    Rng.of_path
      ~seed:(P.Property.property_seed ~seed:f.seed ~name:"fails at 100+")
      f.path
  in
  let replayed = P.Gen.int_range ~lo:0 ~hi:10_000 rng in
  check_true "replayed input fails too" (replayed >= 100);
  check_true "replayed input is the reported one"
    (string_of_int replayed = f.original_input)

let test_shrinking_reaches_boundary () =
  let f =
    run_expecting_failure ~name:"shrinks to 100"
      (P.Arbitrary.int_range ~lo:0 ~hi:10_000 ())
      (fun x -> if x >= 100 then failwith "too big")
  in
  Alcotest.(check string) "greedy shrink hits the boundary" "100" f.shrunk_input

let test_shrinking_lists () =
  let f =
    run_expecting_failure ~name:"shrinks to 3 elements"
      Arbitrary.(list ~min_len:0 ~max_len:30 (int_range ~lo:0 ~hi:9 ()))
      (fun l -> if List.length l >= 3 then failwith "too long")
  in
  let element_count s =
    (* "[a; b; c]" has length - 2 chars of payload, elements = separators + 1 *)
    if s = "[]" then 0
    else
      1 + String.fold_left (fun acc ch -> if ch = ';' then acc + 1 else acc) 0 s
  in
  check_int "minimal failing length" 3 (element_count f.shrunk_input);
  check_true "elements shrunk toward zero"
    (String.for_all (fun ch -> ch <> '9') f.shrunk_input
    || f.shrink_steps > 0)

let test_replay_env_runs_single_trial () =
  let f0 =
    run_expecting_failure ~name:"env replay target"
      (P.Arbitrary.int_range ~lo:0 ~hi:10_000 ())
      (fun x -> if x >= 100 then failwith "too big")
  in
  Unix.putenv "PROPTEST_REPLAY"
    (String.concat "," (List.map string_of_int f0.path));
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PROPTEST_REPLAY" "")
    (fun () ->
      let f =
        run_expecting_failure ~name:"env replay target"
          (P.Arbitrary.int_range ~lo:0 ~hi:10_000 ())
          (fun x -> if x >= 100 then failwith "too big")
      in
      check_true "replay ran exactly one trial" (f.trials_run = 1);
      Alcotest.(check string)
        "replay regenerates the original input" f0.original_input
        f.original_input)

let test_stat_kit_accepts_the_null () =
  (* Counts drawn from the very distribution they are tested against. *)
  let rng = Rng.create ~seed:11L in
  let d = Nakamoto_prob.Binomial.create ~trials:40 ~p:0.2 in
  let observed = Array.make 41 0 in
  let draws = 4_000 in
  for _ = 1 to draws do
    let k = Nakamoto_prob.Binomial.sample rng d in
    observed.(k) <- observed.(k) + 1
  done;
  let expected =
    Array.init 41 (fun k ->
        float_of_int draws *. Nakamoto_prob.Binomial.pmf d k)
  in
  P.Stat.assert_family ~family:"null calibration"
    [
      P.Stat.chi_square_gof ~label:"sampler gof" ~observed ~expected;
      P.Stat.binomial ~label:"fair coin" ~hits:1_007 ~trials:2_000 ~p:0.5;
    ]

let test_stat_kit_rejects_the_biased () =
  let biased () =
    P.Stat.assert_family ~family:"biased"
      [ P.Stat.binomial ~label:"loaded coin" ~hits:1_500 ~trials:2_000 ~p:0.5 ]
  in
  (match biased () with
  | () -> Alcotest.fail "expected rejection of a 75% 'fair' coin"
  | exception P.Stat.Rejected _ -> ());
  let shifted =
    P.Stat.ks ~label:"shifted"
      (Array.init 500 (fun i -> float_of_int i /. 500.))
      (Array.init 500 (fun i -> 0.35 +. (float_of_int i /. 500.)))
  in
  check_true "KS detects a 0.35 shift" (shifted.p_value < 1e-10);
  let same =
    P.Stat.ks ~label:"same"
      (Array.init 500 (fun i -> float_of_int i /. 500.))
      (Array.init 500 (fun i -> float_of_int i /. 500.))
  in
  check_true "KS accepts identical samples" (same.p_value > 0.99)

let test_bonferroni_threshold () =
  close "bonferroni divides" 1e-8 (Stats.bonferroni ~family_size:100 ~alpha:1e-6);
  (match Stats.bonferroni ~family_size:0 ~alpha:0.1 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let suite =
  [
    case "generation deterministic by (seed, path)"
      test_generation_deterministic_by_path;
    case "generator ranges" test_generator_ranges;
    case "oneof and frequency cover" test_oneof_and_frequency_cover;
    case "failure reports (seed, path) and replays"
      test_failure_reports_seed_and_path;
    case "greedy shrinking reaches the boundary" test_shrinking_reaches_boundary;
    case "list shrinking minimizes" test_shrinking_lists;
    case "PROPTEST_REPLAY runs a single trial" test_replay_env_runs_single_trial;
    case "stat kit accepts the null" test_stat_kit_accepts_the_null;
    case "stat kit rejects the biased" test_stat_kit_rejects_the_biased;
    case "bonferroni threshold" test_bonferroni_threshold;
  ]
