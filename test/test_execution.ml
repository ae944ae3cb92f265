open Helpers
module Sim = Nakamoto_sim
module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree

let quick_config ?(nu = 0.25) ?(rounds = 800) ?(strategy = Sim.Adversary.Idle) ()
    =
  {
    Sim.Config.default with
    nu;
    rounds;
    strategy;
    seed = 7L;
    snapshot_interval = 50;
  }

let test_config_validation () =
  check_raises_invalid "n < 4" (fun () ->
      Sim.Config.validate { Sim.Config.default with n = 3 });
  check_raises_invalid "nu >= 1/2" (fun () ->
      Sim.Config.validate { Sim.Config.default with nu = 0.5 });
  check_raises_invalid "bad p" (fun () ->
      Sim.Config.validate { Sim.Config.default with p = 0. });
  check_raises_invalid "delta < 1" (fun () ->
      Sim.Config.validate { Sim.Config.default with delta = 0 });
  check_raises_invalid "bad snapshot interval" (fun () ->
      Sim.Config.validate { Sim.Config.default with snapshot_interval = 0 });
  check_raises_invalid "reorg_target < 1" (fun () ->
      Sim.Config.validate
        {
          Sim.Config.default with
          strategy = Sim.Adversary.Private_chain { reorg_target = 0 };
        });
  (* 40 miners at nu = 0.25 leave 30 honest: boundary 30 leaves group B
     empty. *)
  check_raises_invalid "balance boundary outside [1, honest - 1]" (fun () ->
      Sim.Config.validate
        {
          Sim.Config.default with
          strategy = Sim.Adversary.Balance { group_boundary = 30 };
        });
  Sim.Config.validate
    {
      Sim.Config.default with
      strategy = Sim.Adversary.Balance { group_boundary = 29 };
    };
  Sim.Config.validate Sim.Config.default

let test_config_derivations () =
  let cfg = { Sim.Config.default with n = 40; nu = 0.25 } in
  check_int "adversary count" 10 (Sim.Config.adversary_count cfg);
  check_int "honest count" 30 (Sim.Config.honest_count cfg);
  close "mu" 0.75 (Sim.Config.mu cfg);
  let cfg2 = Sim.Config.with_c cfg ~c:2. in
  close "c roundtrip" 2. (Sim.Config.c cfg2);
  check_raises_invalid "with_c absurd" (fun () ->
      ignore (Sim.Config.with_c cfg ~c:(-1.)))

let test_determinism () =
  let r1 = Sim.Execution.run (quick_config ()) in
  let r2 = Sim.Execution.run (quick_config ()) in
  check_int "same honest blocks" r1.honest_blocks r2.honest_blocks;
  check_int "same adversary blocks" r1.adversary_blocks r2.adversary_blocks;
  check_int "same convergence count" r1.convergence_opportunities
    r2.convergence_opportunities;
  let r3 = Sim.Execution.run { (quick_config ()) with seed = 8L } in
  check_true "different seed differs"
    (r1.honest_blocks <> r3.honest_blocks
    || r1.adversary_blocks <> r3.adversary_blocks)

let test_all_honest_blocks_in_god_view () =
  let r = Sim.Execution.run (quick_config ()) in
  (* Every honest block ever mined lives in the god view; heights match. *)
  let counted = ref 0 in
  Block_tree.iter_blocks r.god_view (fun b ->
      if (not (Block.is_genesis b)) && b.Block.miner_class = Block.Honest then
        incr counted);
  check_int "honest block conservation" r.honest_blocks !counted

let test_tips_known_to_god () =
  let r = Sim.Execution.run (quick_config ()) in
  Array.iter
    (fun (tip : Block.t) ->
      check_true "final tip in god view" (Block_tree.mem r.god_view tip.hash))
    r.final_tips;
  List.iter
    (fun (snap : Sim.Execution.snapshot) ->
      Array.iter
        (fun (tip : Block.t) ->
          check_true "snapshot tip in god view" (Block_tree.mem r.god_view tip.hash))
        snap.tips)
    r.snapshots

let test_no_orphans_remain () =
  let r = Sim.Execution.run (quick_config ~strategy:Sim.Adversary.Idle ()) in
  check_int "no orphans (idle)" 0 r.orphans_remaining;
  let r2 =
    Sim.Execution.run
      (quick_config ~strategy:(Sim.Adversary.Private_chain { reorg_target = 4 }) ())
  in
  check_int "no orphans (attack)" 0 r2.orphans_remaining

let test_honest_convergence_without_adversary () =
  let cfg = Sim.Scenarios.honest_baseline ~seed:3L in
  let r = Sim.Execution.run cfg in
  (* With delay-1 delivery and c comfortably high, all miners agree up to
     the propagation frontier at the end. *)
  let heights = Array.map (fun (b : Block.t) -> b.height) r.final_tips in
  let min_h = Array.fold_left min max_int heights in
  let max_h = Array.fold_left max 0 heights in
  check_true "tips within one block of each other" (max_h - min_h <= 1);
  check_int "nobody mined adversarially" 0 r.adversary_blocks;
  check_true "chain grew" (max_h > 50)

let test_snapshots_cadence () =
  let r = Sim.Execution.run (quick_config ~rounds:200 ()) in
  (* Every 50 rounds plus the final round (200 is on the cadence). *)
  check_int "snapshot count" 4 (List.length r.snapshots);
  let rounds = List.map (fun (s : Sim.Execution.snapshot) -> s.round) r.snapshots in
  Alcotest.(check (list int)) "snapshot rounds" [ 50; 100; 150; 200 ] rounds

let test_counters_against_state_law () =
  (* The execution's per-round H/N tallies follow the same binomial law as
     the state process (same honest trials, same p). *)
  let cfg = quick_config ~rounds:4_000 () in
  let r = Sim.Execution.run cfg in
  let d =
    Nakamoto_prob.Binomial.create ~trials:(Sim.Config.honest_count cfg) ~p:cfg.p
  in
  let t = float_of_int cfg.rounds in
  let alpha = Nakamoto_prob.Binomial.prob_positive d in
  check_true
    (Printf.sprintf "H-round rate %.4f near alpha %.4f"
       (float_of_int r.h_rounds /. t) alpha)
    (Float.abs ((float_of_int r.h_rounds /. t) -. alpha)
    < 5. *. sqrt (alpha /. t) +. 0.01);
  check_true "h1 <= h" (r.h1_rounds <= r.h_rounds);
  check_true "C <= h1" (r.convergence_opportunities <= r.h1_rounds)

let test_delay_override () =
  (* Forcing worst-case delays on an idle adversary slows chain growth
     into the analytic envelope's lower half. *)
  let base = Sim.Config.with_c { (quick_config ~rounds:6000 ()) with nu = 0.25 } ~c:1. in
  let fast = Sim.Execution.run base in
  let slow =
    Sim.Execution.run
      { base with delay_override = Some Nakamoto_net.Network.Maximal }
  in
  let rate (r : Sim.Execution.result) =
    (Sim.Metrics.chain_growth r).growth_rate
  in
  check_true
    (Printf.sprintf "maximal delays slow growth (%.4f < %.4f)" (rate slow)
       (rate fast))
    (rate slow < rate fast);
  (* Blocks still all arrive: no orphans, full consistency machinery ran. *)
  check_int "no orphans under maximal delays" 0 slow.orphans_remaining

let test_concurrent_domains_match_sequential () =
  (* The execution keeps every piece of mutable state per-run (rng, oracle,
     network, miners, adversary) — nothing module-level.  Two executions
     racing in two domains must therefore reproduce the sequential results
     exactly; this is what lets the campaign engine run trials in
     parallel.  *)
  let cfg_a = quick_config ~rounds:400 () in
  let cfg_b =
    {
      (quick_config ~rounds:400
         ~strategy:(Sim.Adversary.Private_chain { reorg_target = 4 })
         ())
      with
      seed = 9L;
    }
  in
  let summary (r : Sim.Execution.result) =
    ( r.honest_blocks,
      r.adversary_blocks,
      r.convergence_opportunities,
      r.max_reorg_depth,
      r.messages_sent,
      Array.map
        (fun (b : Block.t) -> (b.Block.height, Nakamoto_chain.Hash.to_int64 b.Block.hash))
        r.final_tips )
  in
  let seq_a = summary (Sim.Execution.run cfg_a) in
  let seq_b = summary (Sim.Execution.run cfg_b) in
  let da = Domain.spawn (fun () -> summary (Sim.Execution.run cfg_a)) in
  let db = Domain.spawn (fun () -> summary (Sim.Execution.run cfg_b)) in
  let par_a = Domain.join da in
  let par_b = Domain.join db in
  check_true "domain A reproduces the sequential run" (par_a = seq_a);
  check_true "domain B reproduces the sequential run" (par_b = seq_b)

let test_invalid_config_rejected_by_run () =
  check_raises_invalid "run validates" (fun () ->
      ignore (Sim.Execution.run { (quick_config ()) with n = 2 }))

(* ------------------------------------------------------------------ *)
(* Exact-mode regression pins: these exact values were produced by the
   executor before the aggregate fast path landed.  They freeze the
   bit-level behaviour of the default (Exact) mode — any drift here means
   the rng stream layout, oracle consumption order, or release routing
   changed, which would also invalidate the committed campaign goldens. *)
(* ------------------------------------------------------------------ *)

let test_exact_mode_regression_pins () =
  let r = Sim.Execution.run (quick_config ()) in
  check_int "idle honest blocks" 65 r.honest_blocks;
  check_int "idle adversary blocks" 19 r.adversary_blocks;
  check_int "idle convergence opportunities" 38 r.convergence_opportunities;
  check_int "idle max reorg" 0 r.max_reorg_depth;
  check_int "idle messages" 1885 r.messages_sent;
  check_int "idle h rounds" 65 r.h_rounds;
  check_int "idle h1 rounds" 65 r.h1_rounds;
  let r2 =
    Sim.Execution.run
      {
        (quick_config ~strategy:(Sim.Adversary.Private_chain { reorg_target = 4 }) ())
        with
        seed = 9L;
      }
  in
  check_int "attack honest blocks" 70 r2.honest_blocks;
  check_int "attack adversary blocks" 19 r2.adversary_blocks;
  check_int "attack convergence opportunities" 39 r2.convergence_opportunities;
  check_int "attack max reorg" 1 r2.max_reorg_depth;
  check_int "attack messages" 2030 r2.messages_sent

(* ------------------------------------------------------------------ *)
(* Aggregate-mode tests: the fast path must match Exact in distribution
   (same law for every statistic), be deterministic per seed, run the
   attack strategies, and leave no orphans.                             *)
(* ------------------------------------------------------------------ *)

let aggregate_config ?(nu = 0.25) ?(rounds = 800) ?(strategy = Sim.Adversary.Idle)
    ?(seed = 7L) () =
  {
    Sim.Config.default with
    nu;
    rounds;
    strategy;
    seed;
    snapshot_interval = 50;
    mining_mode = Sim.Config.Aggregate;
  }

let test_aggregate_determinism () =
  let summary (r : Sim.Execution.result) =
    ( r.honest_blocks,
      r.adversary_blocks,
      r.convergence_opportunities,
      r.max_reorg_depth,
      r.messages_sent,
      Array.map
        (fun (b : Block.t) -> Nakamoto_chain.Hash.to_int64 b.Block.hash)
        r.final_tips )
  in
  let cfg =
    aggregate_config ~strategy:(Sim.Adversary.Private_chain { reorg_target = 4 })
      ()
  in
  check_true "aggregate deterministic per seed"
    (summary (Sim.Execution.run cfg) = summary (Sim.Execution.run cfg))

(* A fast mining mode runs a recipient-dependent delay policy on the
   queue lane, every miner materialized: Balance's default Per_recipient
   policy and a Uniform_random override both quiesce with no orphans and
   every honest block in the god view. *)
let expect_fast_mode_runs_queue_lane mining_mode =
  let runs label (cfg : Sim.Config.t) =
    let r = Sim.Execution.run { cfg with mining_mode } in
    check_int (label ^ ": no orphans") 0 r.orphans_remaining;
    check_true (label ^ ": honest blocks mined") (r.honest_blocks > 0);
    let counted = ref 0 in
    Block_tree.iter_blocks r.god_view (fun b ->
        if (not (Block.is_genesis b)) && b.Block.miner_class = Block.Honest
        then incr counted);
    check_int (label ^ ": honest block conservation") r.honest_blocks !counted
  in
  runs "balance default policy"
    (aggregate_config ~nu:0.3
       ~strategy:(Sim.Adversary.Balance { group_boundary = 10 })
       ());
  runs "uniform-random override"
    {
      (aggregate_config
         ~strategy:(Sim.Adversary.Private_chain { reorg_target = 4 })
         ())
      with
      delay_override = Some Nakamoto_net.Network.Uniform_random;
    }

let test_aggregate_runs_recipient_dependent_policies () =
  expect_fast_mode_runs_queue_lane Sim.Config.Aggregate

let test_aggregate_matches_exact_in_distribution () =
  (* Same configuration, long horizon, different executors: every counter
     is an iid-sum statistic, so the two runs must agree within a few
     standard deviations.  Bounds are ~4 sigma of the difference of two
     independent runs (sigma_diff = sqrt 2 * sigma_run), so a correct
     implementation fails with probability < 1e-4 per check. *)
  let rounds = 20_000 in
  let exact =
    Sim.Execution.run { (quick_config ~rounds ()) with seed = 11L }
  in
  let agg = Sim.Execution.run (aggregate_config ~rounds ~seed:12L ()) in
  let per_round x = float_of_int x /. float_of_int rounds in
  (* honest mean/round = 30 * 0.0025 = 0.075, sd/run ~ 38.7 blocks. *)
  check_true
    (Printf.sprintf "honest blocks close (%d vs %d)" exact.honest_blocks
       agg.honest_blocks)
    (abs (exact.honest_blocks - agg.honest_blocks) < 250);
  (* adversary mean/round = 10 * 0.0025 = 0.025, sd/run ~ 22 blocks. *)
  check_true
    (Printf.sprintf "adversary blocks close (%d vs %d)" exact.adversary_blocks
       agg.adversary_blocks)
    (abs (exact.adversary_blocks - agg.adversary_blocks) < 150);
  check_true
    (Printf.sprintf "h-round rate close (%.4f vs %.4f)" (per_round exact.h_rounds)
       (per_round agg.h_rounds))
    (Float.abs (per_round exact.h_rounds -. per_round agg.h_rounds) < 0.012);
  check_true
    (Printf.sprintf "h1-round rate close (%.4f vs %.4f)"
       (per_round exact.h1_rounds) (per_round agg.h1_rounds))
    (Float.abs (per_round exact.h1_rounds -. per_round agg.h1_rounds) < 0.012);
  check_true
    (Printf.sprintf "convergence-opportunity rate close (%.4f vs %.4f)"
       (per_round exact.convergence_opportunities)
       (per_round agg.convergence_opportunities))
    (Float.abs
       (per_round exact.convergence_opportunities
       -. per_round agg.convergence_opportunities)
    < 0.012)

let test_aggregate_invariants () =
  let r = Sim.Execution.run (aggregate_config ()) in
  check_int "no orphans (idle)" 0 r.orphans_remaining;
  check_int "tips array sized n_honest" 30 (Array.length r.final_tips);
  Array.iter
    (fun (tip : Block.t) ->
      check_true "final tip in god view" (Block_tree.mem r.god_view tip.hash))
    r.final_tips;
  List.iter
    (fun (snap : Sim.Execution.snapshot) ->
      check_int "snapshot sized n_honest" 30 (Array.length snap.tips);
      Array.iter
        (fun (tip : Block.t) ->
          check_true "snapshot tip in god view" (Block_tree.mem r.god_view tip.hash))
        snap.tips)
    r.snapshots;
  (* Honest block conservation through the crowd + materialized views. *)
  let counted = ref 0 in
  Block_tree.iter_blocks r.god_view (fun b ->
      if (not (Block.is_genesis b)) && b.Block.miner_class = Block.Honest then
        incr counted);
  check_int "honest block conservation" r.honest_blocks !counted

let test_aggregate_attack_runs () =
  (* Private-chain attack under Maximal delays (recipient-independent, so
     the aggregate path applies): reorgs happen, nothing is stranded. *)
  let r =
    Sim.Execution.run
      (aggregate_config ~rounds:4_000 ~nu:0.4
         ~strategy:(Sim.Adversary.Private_chain { reorg_target = 2 })
         ())
  in
  check_true "adversary mined" (r.adversary_blocks > 0);
  check_true "releases happened" (r.adversary_releases > 0);
  check_true "reorgs witnessed" (r.max_reorg_depth >= 2);
  check_int "no orphans" 0 r.orphans_remaining

let test_aggregate_honest_convergence () =
  (* Idle adversary, immediate delivery: like the exact-mode convergence
     test, every view (crowd and materialized alike) settles within one
     block of the frontier. *)
  let r = Sim.Execution.run (aggregate_config ~rounds:2_000 ()) in
  let heights = Array.map (fun (b : Block.t) -> b.height) r.final_tips in
  let min_h = Array.fold_left min max_int heights in
  let max_h = Array.fold_left max 0 heights in
  check_true "tips within one block of each other" (max_h - min_h <= 1);
  check_true "chain grew" (max_h > 50)

(* Regression surfaced by the property tier's soak run (seed 42, path
   [38], shrunk): the Balance adversary's [Only]-audience releases
   materialize every honest miner, after which the crowd view stood for
   nobody yet kept receiving ring blocks whose direct-sent parents it
   never saw — phantom orphans counted in [orphans_remaining].  The crowd
   now retires once all miners are materialized; both modes must agree on
   zero orphans after quiescence. *)
let test_aggregate_balance_no_phantom_orphans () =
  let spec =
    {
      Sim.Scenarios.n = 26;
      nu = 0.3703;
      c = 3.9997;
      delta = 1;
      rounds = 200;
      seed = -8843244188913738181L;
      strategy = Sim.Adversary.Balance { group_boundary = 16 };
      delay = Some Nakamoto_net.Network.Immediate;
      tie_break = Nakamoto_chain.Block_tree.Prefer_honest;
      mining_mode = Sim.Config.Exact;
    }
  in
  List.iter
    (fun (label, mode) ->
      let r =
        Sim.Execution.run
          (Sim.Scenarios.of_spec { spec with mining_mode = mode })
      in
      check_int (label ^ ": no orphans after quiescence") 0 r.orphans_remaining)
    [ ("exact", Sim.Config.Exact); ("aggregate", Sim.Config.Aggregate) ]

(* ------------------------------------------------------------------ *)
(* Skip-mode tests: the round-skipping executor must be deterministic,
   run recipient-dependent delays, match the aggregate path in
   distribution, and report how few rounds it actually simulated.       *)
(* ------------------------------------------------------------------ *)

let skip_config ?(nu = 0.25) ?(rounds = 800) ?(strategy = Sim.Adversary.Idle)
    ?(seed = 7L) () =
  {
    Sim.Config.default with
    nu;
    rounds;
    strategy;
    seed;
    snapshot_interval = 50;
    mining_mode = Sim.Config.Skip;
  }

let test_skip_determinism () =
  let summary (r : Sim.Execution.result) =
    ( r.honest_blocks,
      r.adversary_blocks,
      r.convergence_opportunities,
      r.max_reorg_depth,
      r.messages_sent,
      r.processed_rounds,
      Array.map
        (fun (b : Block.t) -> Nakamoto_chain.Hash.to_int64 b.Block.hash)
        r.final_tips )
  in
  let cfg =
    skip_config ~strategy:(Sim.Adversary.Private_chain { reorg_target = 4 }) ()
  in
  check_true "skip deterministic per seed"
    (summary (Sim.Execution.run cfg) = summary (Sim.Execution.run cfg))

let test_skip_runs_recipient_dependent_policies () =
  expect_fast_mode_runs_queue_lane Sim.Config.Skip

let test_skip_matches_aggregate_in_distribution () =
  (* Same bounds rationale as the exact-vs-aggregate test: every counter
     is an iid-sum statistic, checked to ~4 sigma of a two-run
     difference. *)
  let rounds = 20_000 in
  let agg = Sim.Execution.run (aggregate_config ~rounds ~seed:11L ()) in
  let skip = Sim.Execution.run (skip_config ~rounds ~seed:12L ()) in
  let per_round x = float_of_int x /. float_of_int rounds in
  check_true
    (Printf.sprintf "honest blocks close (%d vs %d)" agg.honest_blocks
       skip.honest_blocks)
    (abs (agg.honest_blocks - skip.honest_blocks) < 250);
  check_true
    (Printf.sprintf "adversary blocks close (%d vs %d)" agg.adversary_blocks
       skip.adversary_blocks)
    (abs (agg.adversary_blocks - skip.adversary_blocks) < 150);
  check_true
    (Printf.sprintf "h-round rate close (%.4f vs %.4f)" (per_round agg.h_rounds)
       (per_round skip.h_rounds))
    (Float.abs (per_round agg.h_rounds -. per_round skip.h_rounds) < 0.012);
  check_true
    (Printf.sprintf "h1-round rate close (%.4f vs %.4f)"
       (per_round agg.h1_rounds) (per_round skip.h1_rounds))
    (Float.abs (per_round agg.h1_rounds -. per_round skip.h1_rounds) < 0.012);
  check_true
    (Printf.sprintf "convergence-opportunity rate close (%.4f vs %.4f)"
       (per_round agg.convergence_opportunities)
       (per_round skip.convergence_opportunities))
    (Float.abs
       (per_round agg.convergence_opportunities
       -. per_round skip.convergence_opportunities)
    < 0.012)

let test_skip_invariants () =
  let r = Sim.Execution.run (skip_config ()) in
  check_int "no orphans (idle)" 0 r.orphans_remaining;
  check_int "tips array sized n_honest" 30 (Array.length r.final_tips);
  Array.iter
    (fun (tip : Block.t) ->
      check_true "final tip in god view" (Block_tree.mem r.god_view tip.hash))
    r.final_tips;
  List.iter
    (fun (snap : Sim.Execution.snapshot) ->
      check_int "snapshot sized n_honest" 30 (Array.length snap.tips);
      Array.iter
        (fun (tip : Block.t) ->
          check_true "snapshot tip in god view" (Block_tree.mem r.god_view tip.hash))
        snap.tips)
    r.snapshots;
  let counted = ref 0 in
  Block_tree.iter_blocks r.god_view (fun b ->
      if (not (Block.is_genesis b)) && b.Block.miner_class = Block.Honest then
        incr counted);
  check_int "honest block conservation" r.honest_blocks !counted

let test_processed_rounds_semantics () =
  (* Exact and aggregate touch every round; skip touches only event
     rounds, so it must report strictly fewer than [rounds] at the
     default block density (1/(c*delta) ~ 1/16) while still accounting
     the full horizon in its statistics. *)
  let rounds = 2_000 in
  let exact = Sim.Execution.run (quick_config ~rounds ()) in
  check_int "exact processes every round" rounds exact.processed_rounds;
  let agg = Sim.Execution.run (aggregate_config ~rounds ()) in
  check_int "aggregate processes every round" rounds agg.processed_rounds;
  let skip = Sim.Execution.run (skip_config ~rounds ()) in
  check_true
    (Printf.sprintf "skip processes fewer rounds (%d of %d)"
       skip.processed_rounds rounds)
    (skip.processed_rounds > 0 && skip.processed_rounds < rounds)

let test_skip_snapshot_cadence () =
  (* Snapshots fall on the configured cadence even when the rounds they
     name were fast-forwarded over. *)
  let r = Sim.Execution.run (skip_config ~rounds:200 ()) in
  check_int "snapshot count" 4 (List.length r.snapshots);
  let rounds = List.map (fun (s : Sim.Execution.snapshot) -> s.round) r.snapshots in
  Alcotest.(check (list int)) "snapshot rounds" [ 50; 100; 150; 200 ] rounds

let test_skip_attack_runs () =
  let r =
    Sim.Execution.run
      (skip_config ~rounds:4_000 ~nu:0.4
         ~strategy:(Sim.Adversary.Private_chain { reorg_target = 2 })
         ())
  in
  check_true "adversary mined" (r.adversary_blocks > 0);
  check_true "releases happened" (r.adversary_releases > 0);
  check_true "reorgs witnessed" (r.max_reorg_depth >= 2);
  check_int "no orphans" 0 r.orphans_remaining

let test_skip_honest_convergence () =
  let r = Sim.Execution.run (skip_config ~rounds:2_000 ()) in
  let heights = Array.map (fun (b : Block.t) -> b.height) r.final_tips in
  let min_h = Array.fold_left min max_int heights in
  let max_h = Array.fold_left max 0 heights in
  check_true "tips within one block of each other" (max_h - min_h <= 1);
  check_true "chain grew" (max_h > 50)

(* The allocation counters read the minor heap only as of its last
   collection, so empty it on both sides of a measured trial. *)
let allocated_words () =
  Gc.minor ();
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* A fast-mode trial allocates for its events and its snapshots, not
   for every miner.  At n = 10^5 and the paper's c = 8 a Skip trial
   simulates a handful of events; its only mu n-sized allocations are
   the distinct snapshot tips arrays, the final tips and the network's
   empty inbox slots.  The budget is (distinct snapshot arrays + 3) mu n
   words plus a constant for the events. *)
let test_skip_allocation_scales_with_events () =
  let rounds = 20_000 in
  let cfg =
    Sim.Config.with_c
      {
        (skip_config ~rounds ()) with
        n = 100_000;
        delta = 256;
        snapshot_interval = rounds;
      }
      ~c:8.
  in
  let before = allocated_words () in
  let r = Sim.Execution.run cfg in
  let words = allocated_words () -. before in
  let distinct =
    List.fold_left
      (fun acc (s : Sim.Execution.snapshot) ->
        if List.exists (fun t -> t == s.tips) acc then acc else s.tips :: acc)
      [] r.snapshots
  in
  let mu_n = float_of_int (Sim.Config.honest_count cfg) in
  let budget = (float_of_int (List.length distinct + 3) *. mu_n) +. 25_000. in
  check_true
    (Printf.sprintf "%.0f words allocated, budget %.0f (%d events)" words
       budget r.processed_rounds)
    (words <= budget)

(* A fast-mode delivery costs the blocks delivered, not one insert per
   materialized miner: a miner whose view has come back to the crowd's
   folds back into it, and a materialized miner's tree is an overlay over
   the crowd's rather than a copy.  At the default campaign grid (n = 40,
   Delta = 4, p = 0.005, nu in {0.1, 0.25, 0.4}, 1 500 rounds, Private
   chain) a trial measured 238k words under Aggregate and 118k under
   Skip; with every winner kept materialized in a private tree copy it
   was 524k and 414k. *)
let test_fast_mode_allocation_floor () =
  let words_per_trial mining_mode =
    let spec =
      { Nakamoto_campaign.Spec.default with mining_mode; trials_per_cell = 4 }
    in
    let cells = Nakamoto_campaign.Spec.cells spec in
    let before = allocated_words () in
    Array.iter
      (fun cell ->
        for trial = 0 to spec.trials_per_cell - 1 do
          ignore
            (Sim.Execution.run
               (Nakamoto_campaign.Spec.config_of_cell spec cell ~trial))
        done)
      cells;
    (allocated_words () -. before)
    /. float_of_int (Array.length cells * spec.trials_per_cell)
  in
  List.iter
    (fun (name, mode, budget) ->
      let words = words_per_trial mode in
      check_true
        (Printf.sprintf "%s: %.0f words per trial, budget %.0f" name words
           budget)
        (words <= budget))
    [
      ("aggregate", Sim.Config.Aggregate, 360_000.);
      ("skip", Sim.Config.Skip, 240_000.);
    ]

(* Exact mode's H-query is one unboxed digest: a query that misses
   allocates nothing.  With the digest chained through four boxed
   cross-module combines a miss cost 33 words. *)
let test_pow_miss_allocation_floor () =
  let module Pow = Nakamoto_chain.Pow in
  let oracle = Pow.create ~seed:0x5EEDL ~p:0.02 in
  let stored =
    Block.mine ~parent:Block.genesis ~miner:3 ~miner_class:Block.Honest
      ~round:1 ~nonce:3 ~payload:""
  in
  let parent = stored.hash in
  let rec miss round =
    match Pow.query oracle ~parent ~miner:5 ~round ~query_index:0 with
    | None -> round
    | Some _ -> miss (round + 1)
  in
  let round = miss 1 in
  let queries = 10_000 in
  let before = allocated_words () in
  for _ = 1 to queries do
    ignore
      (Sys.opaque_identity
         (Pow.query oracle ~parent ~miner:5 ~round ~query_index:0))
  done;
  let words = (allocated_words () -. before) /. float_of_int queries in
  check_true
    (Printf.sprintf "%.2f words per missed query, budget 3" words)
    (words <= 3.)

(* An Exact trial allocates for its blocks, messages and snapshots, not
   per query, per idle delivery or per honest miner.  At serve-mixed's
   cell (n = 8, Delta = 2, p = 0.02, nu in {0.1, 0.3}, 200 rounds) a
   trial measured 12 929 words, and 80 009 with the boxed digest, the
   closure-based queue drain and the per-round closures of the round
   loop; on the default grid it measured 350 245 against ~2.67 million.
   At execscale-smoke's cell (n = 10^4, 50 rounds) it measured 2 580 949
   while every miner held its own 256-bucket block table, and 32 699 once
   the miners whose view is the crowd's shared the crowd's tree. *)
let test_exact_allocation_floor () =
  let words_per_trial configs =
    let before = allocated_words () in
    List.iter (fun cfg -> ignore (Sim.Execution.run cfg)) configs;
    (allocated_words () -. before) /. float_of_int (List.length configs)
  in
  let trials (spec : Nakamoto_campaign.Spec.t) =
    Array.to_list (Nakamoto_campaign.Spec.cells spec)
    |> List.concat_map (fun cell ->
           List.init spec.trials_per_cell (fun trial ->
               Nakamoto_campaign.Spec.config_of_cell spec cell ~trial))
  in
  let default = Nakamoto_campaign.Spec.default in
  List.iter
    (fun (name, configs, budget) ->
      let words = words_per_trial configs in
      check_true
        (Printf.sprintf "%s: %.0f words per trial, budget %.0f" name words
           budget)
        (words <= budget))
    [
      ( "serve-mixed cell",
        trials
          {
            default with
            ps = [ 0.02 ];
            ns = [ 8 ];
            deltas = [ 2 ];
            nus = [ 0.1; 0.3 ];
            rounds = 200;
            trials_per_cell = 8;
          },
        35_000. );
      ("default grid", trials { default with trials_per_cell = 2 }, 1_000_000.);
      ( "execscale-smoke cell",
        [
          Sim.Config.with_c
            {
              Sim.Config.default with
              n = 10_000;
              nu = 0.25;
              delta = 4;
              rounds = 50;
              seed = 17L;
              snapshot_interval = 50;
              delay_override = Some (Nakamoto_net.Network.Fixed 2);
            }
            ~c:2.5;
        ],
        88_000. );
    ]

let suite =
  [
    case "config validation" test_config_validation;
    case "config derivations" test_config_derivations;
    case "determinism by seed" test_determinism;
    case "honest block conservation" test_all_honest_blocks_in_god_view;
    case "tips known to god view" test_tips_known_to_god;
    case "no orphans remain" test_no_orphans_remain;
    case "honest-only convergence" test_honest_convergence_without_adversary;
    case "snapshot cadence" test_snapshots_cadence;
    case "counters follow the state law" test_counters_against_state_law;
    case "delay override" test_delay_override;
    case "concurrent domains match sequential" test_concurrent_domains_match_sequential;
    case "run validates config" test_invalid_config_rejected_by_run;
    case "exact-mode regression pins" test_exact_mode_regression_pins;
    case "aggregate determinism" test_aggregate_determinism;
    case "aggregate runs recipient-dependent policies"
      test_aggregate_runs_recipient_dependent_policies;
    case "aggregate matches exact in distribution"
      test_aggregate_matches_exact_in_distribution;
    case "aggregate invariants" test_aggregate_invariants;
    case "aggregate attack runs" test_aggregate_attack_runs;
    case "aggregate honest convergence" test_aggregate_honest_convergence;
    case "aggregate balance has no phantom crowd orphans"
      test_aggregate_balance_no_phantom_orphans;
    case "skip determinism" test_skip_determinism;
    case "skip runs recipient-dependent policies"
      test_skip_runs_recipient_dependent_policies;
    case "skip matches aggregate in distribution"
      test_skip_matches_aggregate_in_distribution;
    case "skip invariants" test_skip_invariants;
    case "processed_rounds semantics across modes"
      test_processed_rounds_semantics;
    case "skip snapshot cadence" test_skip_snapshot_cadence;
    case "skip attack runs" test_skip_attack_runs;
    case "skip honest convergence" test_skip_honest_convergence;
    case "skip allocation scales with events, not n"
      test_skip_allocation_scales_with_events;
    case "fast-mode allocation floor at the default campaign grid"
      test_fast_mode_allocation_floor;
    case "a missed H-query allocates nothing" test_pow_miss_allocation_floor;
    case "exact-mode allocation floor at the serve-mixed cell"
      test_exact_allocation_floor;
  ]
