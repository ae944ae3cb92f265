(* Generative properties over the numeric, probability, pattern, and
   simulation layers — invariants that must hold at every generated
   point, with failures replayable from the printed (seed, path). *)

open Helpers
module Special = Nakamoto_numerics.Special
module Stats = Nakamoto_prob.Stats
module Binomial = Nakamoto_prob.Binomial
module Rng = Nakamoto_prob.Rng
module Round_state = Nakamoto_sim.Round_state
module Pattern = Nakamoto_sim.Pattern
module Scenarios = Nakamoto_sim.Scenarios
module Config = Nakamoto_sim.Config
module Execution = Nakamoto_sim.Execution
module Trace = Nakamoto_sim.Trace

(* --- binomial distribution --- *)

let binomial_params =
  Arbitrary.make
    ~print:(fun (trials, p) -> Printf.sprintf "(trials=%d, p=%.17g)" trials p)
    ~shrink:
      (P.Shrink.pair (P.Shrink.int ~target:0) (fun p ->
           if p = 0. then Seq.empty else List.to_seq [ 0.; 0.5 ]))
    (fun rng ->
      let trials = Gen.int_range ~lo:0 ~hi:300 rng in
      let p =
        Gen.frequency
          [
            (1, Gen.return 0.);
            (1, Gen.return 1.);
            (6, Gen.float_range ~lo:0. ~hi:1.);
          ]
          rng
      in
      (trials, p))

let prop_cdf_survival_complement (trials, p) =
  let d = Binomial.create ~trials ~p in
  if Binomial.cdf d (-1) <> 0. then failwith "cdf(-1) <> 0";
  if Binomial.survival d trials <> 0. then failwith "survival(trials) <> 0";
  if not (Special.approx_equal ~rtol:1e-12 ~atol:0. 1. (Binomial.cdf d trials))
  then failwith "cdf(trials) <> 1";
  let prev = ref 0. in
  for k = -1 to trials + 1 do
    let c = Binomial.cdf d k and s = Binomial.survival d k in
    if c < !prev -. 1e-15 then failwith "cdf not monotone";
    prev := c;
    if not (Special.approx_equal ~rtol:1e-9 ~atol:1e-12 1. (c +. s)) then
      failwith
        (Printf.sprintf "cdf(%d) + survival(%d) = %.17g <> 1" k k (c +. s))
  done

let sampler_params =
  Arbitrary.make
    ~print:(fun (trials, p) -> Printf.sprintf "(trials=%d, p=%.17g)" trials p)
    (fun rng ->
      let trials = int_of_float (Gen.log_float_range ~lo:1. ~hi:2000. rng) in
      let p = Gen.log_float_range ~lo:1e-4 ~hi:0.999 rng in
      (trials, p))

(* The sampler's draws are individually in range and collectively
   indistinguishable from the distribution they claim: pooling 150 draws
   makes the total an exact binom(150 * trials, p) variate.  The sampling
   stream's seed is a function of the parameters, so the verdict at each
   generated point is reproducible in isolation. *)
let prop_sampler_law (trials, p) =
  let rng =
    Rng.create
      ~seed:(Int64.add (Int64.of_int trials) (Int64.of_float (p *. 1e9)))
  in
  let d = Binomial.create ~trials ~p in
  let draws = 150 in
  let total = ref 0 in
  for _ = 1 to draws do
    let k = Binomial.sample rng d in
    if k < 0 || k > trials then
      failwith (Printf.sprintf "sample %d outside [0, %d]" k trials);
    total := !total + k
  done;
  let pv = Stats.binomial_test ~hits:!total ~trials:(draws * trials) ~p in
  if pv < 1e-9 then
    failwith
      (Printf.sprintf "pooled sampler mean rejected: %d/%d hits, p-value %.3e"
         !total (draws * trials) pv)

(* --- special functions --- *)

let gamma_point =
  Arbitrary.make
    ~print:(fun (a, x) -> Printf.sprintf "(a=%.17g, x=%.17g)" a x)
    (fun rng ->
      (Gen.log_float_range ~lo:1e-2 ~hi:100. rng,
       Gen.log_float_range ~lo:1e-6 ~hi:500. rng))

let prop_regularized_gamma_complement (a, x) =
  let p = Special.regularized_gamma_lower ~a ~x in
  let q = Special.regularized_gamma_upper ~a ~x in
  if p < 0. || p > 1. || q < 0. || q > 1. then failwith "P or Q outside [0, 1]";
  if not (Special.approx_equal ~rtol:1e-10 ~atol:1e-13 1. (p +. q)) then
    failwith (Printf.sprintf "P + Q = %.17g <> 1" (p +. q))

let prop_chi_square_df2_exact x =
  (* For df = 2 the chi-square survival has the elementary closed form
     exp(-x/2) — an end-to-end check of the continued-fraction path. *)
  let s = Stats.chi_square_survival ~df:2 x in
  if not (Special.approx_equal ~rtol:1e-10 ~atol:1e-300 (exp (-.x /. 2.)) s)
  then failwith (Printf.sprintf "survival(df=2, %.17g) = %.17g" x s)

(* --- pattern detection --- *)

let round_state_trace =
  let state =
    Gen.frequency
      [
        (6, Gen.return Round_state.N);
        (3, Gen.return (Round_state.H 1));
        (1, Gen.map (fun k -> Round_state.H k) (Gen.int_range ~lo:2 ~hi:4));
      ]
  in
  Arbitrary.make
    ~print:(fun (delta, states) ->
      Printf.sprintf "(delta=%d, \"%s\")" delta
        (String.init (Array.length states) (fun i ->
             Round_state.to_char states.(i))))
    ~shrink:(fun (delta, states) ->
      Seq.map
        (fun l -> (delta, Array.of_list l))
        (P.Shrink.list P.Shrink.nothing (Array.to_list states)))
    (fun rng ->
      let delta = Gen.int_range ~lo:1 ~hi:8 rng in
      let len = Gen.int_range ~lo:0 ~hi:300 rng in
      (delta, Array.init len (fun _ -> state rng)))

let prop_pattern_streaming_matches_rescan (delta, states) =
  let t = Pattern.create ~delta in
  Pattern.observe_all t states;
  let streamed = Pattern.count t in
  let rescanned = Pattern.count_by_rescan ~delta states in
  if streamed <> rescanned then
    failwith
      (Printf.sprintf "streaming %d <> rescan %d over %d rounds" streamed
         rescanned (Array.length states));
  if Pattern.rounds_seen t <> Array.length states then
    failwith "rounds_seen mismatch"

let prop_round_state_roundtrip k =
  let s = Round_state.of_block_count k in
  if Round_state.block_count s <> k then failwith "block_count roundtrip";
  if Round_state.is_h s <> (k >= 1) then failwith "is_h";
  if Round_state.is_h1 s <> (k = 1) then failwith "is_h1"

(* --- scenario specs and the executor --- *)

let prop_of_spec_realizes_c (spec : Scenarios.spec) =
  let cfg = Scenarios.of_spec spec in
  Config.validate cfg;
  let c = Config.c cfg in
  if not (Special.approx_equal ~rtol:1e-9 ~atol:0. spec.c c) then
    failwith (Printf.sprintf "of_spec c: wanted %.17g, got %.17g" spec.c c);
  if cfg.Config.n <> spec.n || cfg.Config.delta <> spec.delta then
    failwith "of_spec dropped a field"

let prop_execution_conservation (spec : Scenarios.spec) =
  let spec = { spec with Scenarios.rounds = min spec.Scenarios.rounds 600 } in
  let cfg = Scenarios.of_spec spec in
  let r = Execution.run cfg in
  let fail fmt = Printf.ksprintf failwith fmt in
  if r.Execution.orphans_remaining <> 0 then
    fail "%d orphans after quiescence" r.Execution.orphans_remaining;
  if not (r.Execution.h1_rounds <= r.Execution.h_rounds) then
    fail "h1_rounds %d > h_rounds %d" r.Execution.h1_rounds
      r.Execution.h_rounds;
  if not (r.Execution.h_rounds <= spec.Scenarios.rounds) then
    fail "h_rounds %d > rounds %d" r.Execution.h_rounds spec.Scenarios.rounds;
  if not (r.Execution.honest_blocks >= r.Execution.h_rounds) then
    fail "honest_blocks %d < h_rounds %d" r.Execution.honest_blocks
      r.Execution.h_rounds;
  if not (r.Execution.convergence_opportunities <= r.Execution.h1_rounds) then
    fail "convergence opportunities %d > h1_rounds %d"
      r.Execution.convergence_opportunities r.Execution.h1_rounds;
  if Array.length r.Execution.final_tips <> Config.honest_count cfg then
    fail "final_tips arity %d <> honest count %d"
      (Array.length r.Execution.final_tips)
      (Config.honest_count cfg);
  if r.Execution.max_reorg_depth < 0 then fail "negative reorg depth";
  (* Every settled tip is a real chain position. *)
  Array.iter
    (fun tip ->
      if tip.Nakamoto_chain.Block.height < 0 then fail "negative tip height")
    r.Execution.final_tips;
  (* Snapshots are chronological. *)
  ignore
    (List.fold_left
       (fun prev (s : Execution.snapshot) ->
         if s.Execution.round < prev then fail "snapshots out of order";
         s.Execution.round)
       0 r.Execution.snapshots)

let prop_trace_capture_deterministic (spec : Scenarios.spec) =
  let spec = { spec with Scenarios.rounds = min spec.Scenarios.rounds 300 } in
  let cfg = Scenarios.of_spec spec in
  let t1 = Trace.capture cfg and t2 = Trace.capture cfg in
  if not (Trace.equal t1 t2) then failwith "capture not deterministic";
  if Trace.digest t1 <> Trace.digest t2 then
    failwith "equal traces, unequal digests";
  (* The text format round-trips and the digest survives it. *)
  let t3 = Trace.of_string (Trace.to_string t1) in
  if not (Trace.equal t1 t3) then failwith "text format does not round-trip";
  if Trace.digest t1 <> Trace.digest t3 then
    failwith "digest changed across the text round-trip"

let suite =
  [
    prop "binomial cdf + survival = 1, cdf monotone" ~count:100
      binomial_params
      (holds prop_cdf_survival_complement);
    prop "binomial sampler obeys its own law" ~count:60 sampler_params
      (holds prop_sampler_law);
    prop "regularized gamma P + Q = 1" ~count:100 gamma_point
      (holds prop_regularized_gamma_complement);
    prop "chi-square survival df=2 is exp(-x/2)" ~count:100
      (Arbitrary.log_float_range ~lo:1e-4 ~hi:200.)
      (holds prop_chi_square_df2_exact);
    prop "pattern streaming matches window rescan" ~count:100
      round_state_trace
      (holds prop_pattern_streaming_matches_rescan);
    prop "round state classification round-trips" ~count:100
      (Arbitrary.int_range ~lo:0 ~hi:1000 ())
      (holds prop_round_state_roundtrip);
    prop "of_spec realizes the requested c" ~count:100 P.Domain_gen.exec_spec
      (holds prop_of_spec_realizes_c);
    prop "executor conservation laws" ~count:25 P.Domain_gen.exec_spec
      (holds prop_execution_conservation);
    prop "trace capture is deterministic and round-trips" ~count:10
      P.Domain_gen.exec_spec
      (holds prop_trace_capture_deterministic);
  ]
