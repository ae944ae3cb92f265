open Helpers
module Trace = Nakamoto_sim.Trace
module Sim = Nakamoto_sim

let entry ?(round = 1) ?(hb = 0) ?(ab = 0) ?(rel = 0) ?(bh = 0) ?(rd = 0) () =
  {
    Trace.round;
    honest_blocks = hb;
    adversary_blocks = ab;
    releases = rel;
    best_height = bh;
    reorg_depth = rd;
  }

let test_record_ordering () =
  let t = Trace.create () in
  Trace.record t (entry ~round:1 ());
  Trace.record t (entry ~round:3 ());
  check_int "length" 2 (Trace.length t);
  check_raises_invalid "non-increasing round" (fun () ->
      Trace.record t (entry ~round:3 ()))

let test_roundtrip () =
  let t = Trace.create () in
  Trace.record t (entry ~round:1 ~hb:2 ~bh:1 ());
  Trace.record t (entry ~round:2 ~ab:1 ~rel:1 ~bh:2 ~rd:3 ());
  let s = Trace.to_string t in
  let back = Trace.of_string s in
  check_true "roundtrip equal" (Trace.equal t back);
  check_true "header present" (contains_substring ~affix:"nakamoto trace v1" s)

let test_parse_errors () =
  (match Trace.of_string "no header\n1 2 3 4 5 6\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "missing header must fail");
  (match Trace.of_string "# nakamoto trace v1\n1 2 3\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "wrong arity must fail");
  match Trace.of_string "# nakamoto trace v1\n1 2 3 x 5 6\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "non-numeric must fail"

(* The parser's rejection diagnostics, message for message: the exact
   strings are part of the interface (operators grep logs for them), so
   a reworded or mis-numbered error is a regression, not a refactor. *)
let test_parse_error_messages () =
  let expect_message label input expected =
    match Trace.of_string input with
    | exception Failure msg ->
      if msg <> expected then
        Alcotest.failf "%s: error %S, expected %S" label msg expected
    | _ -> Alcotest.failf "%s: expected Failure %S" label expected
  in
  expect_message "missing header" "1 2 3 4 5 6\n"
    "Trace.of_string: missing v1 header";
  expect_message "empty input" "" "Trace.of_string: missing v1 header";
  expect_message "wrong version" "# nakamoto trace v2\n1 2 3 4 5 6\n"
    "Trace.of_string: missing v1 header";
  (* Line numbers are 1-based over the whole file, header included. *)
  expect_message "short line" "# nakamoto trace v1\n1 0 0 0 1 0\n2 0 0\n"
    "Trace.of_string: expected 6 fields on line 3";
  expect_message "trailing garbage"
    "# nakamoto trace v1\n1 0 0 0 1 0 extra\n"
    "Trace.of_string: expected 6 fields on line 2";
  expect_message "non-integer field"
    "# nakamoto trace v1\n1 0 0 0 1 0\n2 0 zero 0 1 0\n"
    "Trace.of_string: non-numeric field on line 3";
  expect_message "float field" "# nakamoto trace v1\n1 0.5 0 0 1 0\n"
    "Trace.of_string: non-numeric field on line 2";
  (* Comment and blank lines are skipped, not line-number-shifting
     errors: the entry on (file) line 4 is reported as line 4. *)
  expect_message "comments keep line numbers"
    "# nakamoto trace v1\n# a comment\n\n1 2 3\n"
    "Trace.of_string: expected 6 fields on line 4"

let test_capture_deterministic () =
  let cfg =
    { (Sim.Scenarios.attack_zone ~seed:9L ~nu:0.3) with Sim.Config.rounds = 400 }
  in
  let a = Trace.capture cfg in
  let b = Trace.capture cfg in
  check_int "rounds captured" 400 (Trace.length a);
  check_true "equal traces from equal seeds" (Trace.equal a b);
  let c = Trace.capture { cfg with seed = 10L } in
  check_false "different seed differs" (Trace.equal a c);
  (* Serialized form also roundtrips. *)
  check_true "capture roundtrip"
    (Trace.equal a (Trace.of_string (Trace.to_string a)))

let test_capture_matches_result () =
  let cfg =
    { (Sim.Scenarios.honest_baseline ~seed:9L) with Sim.Config.rounds = 500 }
  in
  let trace = Trace.capture cfg in
  let result = Sim.Execution.run cfg in
  let total f =
    List.fold_left (fun acc e -> acc + f e) 0 (Trace.entries trace)
  in
  check_int "honest totals agree" result.honest_blocks
    (total (fun (e : Trace.entry) -> e.honest_blocks));
  check_int "adversary totals agree" result.adversary_blocks
    (total (fun (e : Trace.entry) -> e.adversary_blocks));
  let max_reorg =
    List.fold_left
      (fun acc (e : Trace.entry) -> max acc e.reorg_depth)
      0 (Trace.entries trace)
  in
  check_int "reorg agrees" result.max_reorg_depth max_reorg

let test_digest_basics () =
  let a = Trace.create () and b = Trace.create () in
  check_true "empty digests equal" (Trace.digest a = Trace.digest b);
  Trace.record a (entry ~round:1 ~hb:2 ~bh:1 ());
  Trace.record b (entry ~round:1 ~hb:2 ~bh:1 ());
  check_true "equal traces, equal digests" (Trace.digest a = Trace.digest b);
  Trace.record b (entry ~round:2 ());
  check_true "appending moves the digest" (Trace.digest a <> Trace.digest b);
  let c = Trace.create () in
  Trace.record c (entry ~round:1 ~hb:2 ~bh:1 ~rd:1 ());
  check_true "single-field drift moves the digest"
    (Trace.digest a <> Trace.digest c)

(* Golden digests for the Aggregate and Skip executors (with their Exact
   twins for contrast): any change to the fast modes' sampling order, the
   Δ-ring delivery order, or the trace capture itself moves one of these.  Pins
   were produced by this build; to re-pin after an intentional change,
   run the test and copy the printed actuals. *)
let test_digest_golden () =
  let drifted = ref [] in
  let pin name cfg expected =
    let actual = Trace.digest (Trace.capture cfg) in
    if actual <> expected then
      drifted :=
        Printf.sprintf "%s: digest %LdL, pinned %LdL" name actual expected
        :: !drifted
  in
  let idle = { Sim.Config.default with rounds = 300 } in
  let selfish = { (Sim.Scenarios.selfish ~seed:7L ~nu:0.3) with rounds = 300 } in
  let private_chain =
    { (Sim.Scenarios.attack_zone ~seed:9L ~nu:0.3) with rounds = 300 }
  in
  let aggregate cfg = { cfg with Sim.Config.mining_mode = Sim.Config.Aggregate } in
  let skip cfg = { cfg with Sim.Config.mining_mode = Sim.Config.Skip } in
  pin "idle exact" idle (-8529630278043617785L);
  pin "idle aggregate" (aggregate idle) 8135491591983535470L;
  pin "idle skip" (skip idle) (-5713403842752216858L);
  pin "selfish exact" selfish 593782077359320743L;
  pin "selfish aggregate" (aggregate selfish) (-1688032004928090375L);
  pin "selfish skip" (skip selfish) 5462542769093252640L;
  pin "private-chain exact" private_chain 824747865138562576L;
  pin "private-chain aggregate" (aggregate private_chain)
    (-6121173026786046363L);
  pin "private-chain skip" (skip private_chain) (-6408368387510275239L);
  if !drifted <> [] then
    Alcotest.failf "%s" (String.concat "\n" (List.rev !drifted))

(* Every snapshot's round and every slot's tip hash, in order: what the
   consistency audit reads.  Any change to how the executors build
   snapshots that alters a single slot moves the digest. *)
let snapshot_digest (r : Sim.Execution.result) =
  let mix = Nakamoto_prob.Rng.splitmix64 in
  let feed acc v = mix (Int64.add acc v) in
  List.fold_left
    (fun acc (s : Sim.Execution.snapshot) ->
      Array.fold_left
        (fun acc (b : Nakamoto_chain.Block.t) ->
          feed acc (Nakamoto_chain.Hash.to_int64 b.hash))
        (feed acc (Int64.of_int s.round))
        s.tips)
    (mix 0x9e3779b97f4a7c15L) r.snapshots

(* The snapshot sequences of the nine digest-golden configurations.  Pins
   were produced by this build; to re-pin after an intentional change,
   run the test and copy the printed actuals. *)
let test_snapshot_golden () =
  let drifted = ref [] in
  let pin name cfg expected =
    let actual = snapshot_digest (Sim.Execution.run cfg) in
    if actual <> expected then
      drifted :=
        Printf.sprintf "%s: snapshot digest %LdL, pinned %LdL" name actual
          expected
        :: !drifted
  in
  let idle = { Sim.Config.default with rounds = 300 } in
  let selfish = { (Sim.Scenarios.selfish ~seed:7L ~nu:0.3) with rounds = 300 } in
  let private_chain =
    { (Sim.Scenarios.attack_zone ~seed:9L ~nu:0.3) with rounds = 300 }
  in
  let aggregate cfg = { cfg with Sim.Config.mining_mode = Sim.Config.Aggregate } in
  let skip cfg = { cfg with Sim.Config.mining_mode = Sim.Config.Skip } in
  pin "idle exact" idle 3197392238418536071L;
  pin "idle aggregate" (aggregate idle) (-513683677786731998L);
  pin "idle skip" (skip idle) (-1308106445165456054L);
  pin "selfish exact" selfish 7688506024105082394L;
  pin "selfish aggregate" (aggregate selfish) (-7131434680929248679L);
  pin "selfish skip" (skip selfish) (-7915161997530884826L);
  pin "private-chain exact" private_chain (-2364582005746846358L);
  pin "private-chain aggregate" (aggregate private_chain)
    (-7075864493869475206L);
  pin "private-chain skip" (skip private_chain) (-1916187376528075582L);
  if !drifted <> [] then
    Alcotest.failf "%s" (String.concat "\n" (List.rev !drifted))

(* Skip emits the snapshots of unsimulated rounds lazily: one taken with
   no round simulated since the previous one shares its tips array. *)
let test_skip_shares_snapshots () =
  let cfg =
    {
      Sim.Config.default with
      rounds = 300;
      snapshot_interval = 1;
      mining_mode = Sim.Config.Skip;
    }
  in
  let rec shares = function
    | (a : Sim.Execution.snapshot) :: (b :: _ as rest) ->
      a.tips == b.tips || shares rest
    | _ -> false
  in
  check_true "consecutive snapshots share an unchanged tips array"
    (shares (Sim.Execution.run cfg).snapshots)

let test_summarize () =
  let t = Trace.create () in
  Trace.record t (entry ~round:1 ~hb:2 ~bh:1 ());
  let s = Trace.summarize t in
  check_true "mentions rounds" (contains_substring ~affix:"1 rounds" s);
  check_true "mentions blocks" (contains_substring ~affix:"2 honest blocks" s)

let suite =
  [
    case "record ordering" test_record_ordering;
    case "text roundtrip" test_roundtrip;
    case "parse errors" test_parse_errors;
    case "parse error messages" test_parse_error_messages;
    case "capture determinism" test_capture_deterministic;
    case "capture matches execution result" test_capture_matches_result;
    case "digest basics" test_digest_basics;
    case "digest goldens (exact and aggregate)" test_digest_golden;
    case "snapshot digest goldens" test_snapshot_golden;
    case "skip snapshots share unchanged tips" test_skip_shares_snapshots;
    case "summarize" test_summarize;
  ]
