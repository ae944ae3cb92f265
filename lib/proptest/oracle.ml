module Rng = Nakamoto_prob.Rng
module Binomial = Nakamoto_prob.Binomial
module Params = Nakamoto_core.Params
module Conv_chain = Nakamoto_core.Conv_chain
module Suffix_chain = Nakamoto_core.Suffix_chain
module Chain = Nakamoto_markov.Chain
module Special = Nakamoto_numerics.Special
module Sim = Nakamoto_sim
module Config = Nakamoto_sim.Config
module Scenarios = Nakamoto_sim.Scenarios
module Execution = Nakamoto_sim.Execution
module State_process = Nakamoto_sim.State_process
module Metrics = Nakamoto_sim.Metrics

type lane = Exact_lane | Aggregate_lane | Skip_lane | State_lane

let lane_name = function
  | Exact_lane -> "exact"
  | Aggregate_lane -> "aggregate"
  | Skip_lane -> "skip"
  | State_lane -> "state-process"

type lane_stats = {
  lane : lane;
  rounds : int;
  honest_blocks : int;
  adversary_blocks : int;
  h_rounds : int;
  h1_rounds : int;
  convergence_opportunities : int;
  honest_mined_histogram : int array;  (** rounds with 0, 1, 2, 3, >= 4 *)
  growth_rate : float option;  (** [None] for the network-free state lane *)
}

type report = {
  spec : Scenarios.spec;
  exact : lane_stats;
  aggregate : lane_stats;
  skip : lane_stats;
  state : lane_stats;
  checks : Stat.check list;
}

let histogram_bins = 5

let histogram_add hist k =
  let bin = min (histogram_bins - 1) k in
  hist.(bin) <- hist.(bin) + 1

let stats_of_execution ~lane (cfg : Config.t) =
  let hist = Array.make histogram_bins 0 in
  let reported = ref 0 in
  let r =
    Execution.run
      ~on_round:(fun (rr : Execution.round_report) ->
        incr reported;
        histogram_add hist rr.honest_mined)
      cfg
  in
  (* Under [Skip], [on_round] fires only for simulated rounds; every
     unsimulated round was provably empty, so reconcile them into bin 0
     and the histogram is again over all [cfg.rounds] rounds.  For the
     other lanes [reported = cfg.rounds] and this is a no-op. *)
  hist.(0) <- hist.(0) + (cfg.rounds - !reported);
  {
    lane;
    rounds = cfg.rounds;
    honest_blocks = r.honest_blocks;
    adversary_blocks = r.adversary_blocks;
    h_rounds = r.h_rounds;
    h1_rounds = r.h1_rounds;
    convergence_opportunities = r.convergence_opportunities;
    honest_mined_histogram = hist;
    growth_rate = Some (Metrics.chain_growth r).growth_rate;
  }

let stats_of_state ~seed (cfg : Config.t) =
  let sp = Config.state_process_config cfg in
  let r =
    State_process.run ~rng:(Rng.of_path ~seed [ 3 ]) sp ~rounds:cfg.rounds
  in
  (* The histogram wants the raw per-round counts; draw an independent
     trajectory for it (both samples follow the same law). *)
  let trace =
    State_process.run_trace ~rng:(Rng.of_path ~seed [ 4 ]) sp
      ~rounds:cfg.rounds
  in
  let hist = Array.make histogram_bins 0 in
  Array.iter
    (fun s -> histogram_add hist (Sim.Round_state.block_count s))
    trace;
  {
    lane = State_lane;
    rounds = cfg.rounds;
    honest_blocks = r.State_process.honest_blocks;
    adversary_blocks = r.State_process.adversary_blocks;
    h_rounds = r.State_process.h_rounds;
    h1_rounds = r.State_process.h1_rounds;
    convergence_opportunities = r.State_process.convergence_opportunities;
    honest_mined_histogram = hist;
    growth_rate = None;
  }

(* Per-lane agreement with the analytic law: every counter below is an
   iid per-round (or per-query) sum whose law the paper gives in closed
   form, so the exact binomial test applies with no approximation.  Each
   lane checked against theory implies every pair of lanes agrees. *)
let law_checks (p : Params.t) (cfg : Config.t) s =
  let name fmt = Printf.sprintf fmt (lane_name s.lane) in
  let honest = Config.honest_count cfg in
  let adversarial = Config.adversary_count cfg in
  [
    Stat.binomial ~label:(name "%s h-rounds vs alpha") ~hits:s.h_rounds
      ~trials:s.rounds ~p:(Params.alpha p);
    Stat.binomial ~label:(name "%s h1-rounds vs alpha1") ~hits:s.h1_rounds
      ~trials:s.rounds ~p:(Params.alpha1 p);
    Stat.binomial
      ~label:(name "%s honest blocks vs binom(mu n T, p)")
      ~hits:s.honest_blocks
      ~trials:(honest * s.rounds)
      ~p:cfg.p;
  ]
  @
  if adversarial = 0 then []
  else
    [
      Stat.binomial
        ~label:(name "%s adversary blocks vs binom(nu n T, p)")
        ~hits:s.adversary_blocks
        ~trials:(adversarial * s.rounds)
        ~p:cfg.p;
    ]

let pairwise_checks a b =
  let pair fmt = Printf.sprintf fmt (lane_name a.lane) (lane_name b.lane) in
  [
    Stat.homogeneity
      ~label:(pair "%s vs %s honest-mined histogram")
      a.honest_mined_histogram b.honest_mined_histogram;
    Stat.proportions
      ~label:(pair "%s vs %s convergence-opportunity rate")
      ~hits_a:a.convergence_opportunities ~trials_a:a.rounds
      ~hits_b:b.convergence_opportunities ~trials_b:b.rounds;
  ]

(* Convergence opportunities are not independent across rounds, so no
   exact test exists; instead require each lane's count inside a generous
   envelope around the stationary expectation (Eq. 26).  The slack terms
   absorb boundary effects (the first window needs delta+1 warm-up
   rounds) while still catching any rate off by a constant factor. *)
let convergence_envelope_check (p : Params.t) s =
  let expected =
    Conv_chain.expected_convergence_count p ~horizon:s.rounds
  in
  let slack =
    (7. *. sqrt (expected +. 1.)) +. (2. *. p.Params.delta) +. 10.
  in
  let observed = float_of_int s.convergence_opportunities in
  if Float.abs (observed -. expected) > slack then
    failwith
      (Printf.sprintf
         "%s lane: %d convergence opportunities vs expected %.1f \
          (allowed slack %.1f)"
         (lane_name s.lane) s.convergence_opportunities expected slack)

let growth_check a b =
  match (a.growth_rate, b.growth_rate) with
  | Some ga, Some gb ->
    let ha = int_of_float (ga *. float_of_int a.rounds) in
    let hb = int_of_float (gb *. float_of_int b.rounds) in
    [
      Stat.proportions
        ~label:
          (Printf.sprintf "%s vs %s chain growth" (lane_name a.lane)
             (lane_name b.lane))
        ~hits_a:ha ~trials_a:a.rounds ~hits_b:hb ~trials_b:b.rounds;
    ]
  | _ -> []

let report (spec : Scenarios.spec) =
  let seed = spec.Scenarios.seed in
  let lane_seed i = Rng.seed_of_path ~seed [ i ] in
  let exact_cfg =
    Scenarios.of_spec
      { spec with Scenarios.mining_mode = Config.Exact; seed = lane_seed 1 }
  in
  let aggregate_cfg =
    Scenarios.of_spec
      { spec with Scenarios.mining_mode = Config.Aggregate; seed = lane_seed 2 }
  in
  (* The state lane consumes [Rng.of_path ~seed [3]] and [[4]]. *)
  let skip_cfg =
    Scenarios.of_spec
      { spec with Scenarios.mining_mode = Config.Skip; seed = lane_seed 5 }
  in
  let p = Params.of_sim_config exact_cfg in
  let exact = stats_of_execution ~lane:Exact_lane exact_cfg in
  let aggregate = stats_of_execution ~lane:Aggregate_lane aggregate_cfg in
  let skip = stats_of_execution ~lane:Skip_lane skip_cfg in
  let state = stats_of_state ~seed exact_cfg in
  let checks =
    List.concat
      [
        law_checks p exact_cfg exact;
        law_checks p aggregate_cfg aggregate;
        law_checks p skip_cfg skip;
        law_checks p exact_cfg state;
        pairwise_checks exact aggregate;
        pairwise_checks exact skip;
        pairwise_checks aggregate skip;
        pairwise_checks exact state;
        growth_check exact aggregate;
        growth_check exact skip;
      ]
  in
  { spec; exact; aggregate; skip; state; checks }

let check ?alpha spec =
  let r = report spec in
  let p = Params.of_sim_config (Scenarios.of_spec spec) in
  convergence_envelope_check p r.exact;
  convergence_envelope_check p r.aggregate;
  convergence_envelope_check p r.skip;
  convergence_envelope_check p r.state;
  Stat.assert_family ?alpha
    ~family:("differential oracle on " ^ Scenarios.spec_to_string spec)
    r.checks

(* ------------------------------------------------------------------ *)
(* Stationary-theory agreement: construction vs closed form vs solver. *)
(* ------------------------------------------------------------------ *)

let close ~label ~rtol a b =
  if not (Special.approx_equal ~rtol ~atol:1e-12 a b) then
    failwith
      (Printf.sprintf "%s: %.17g vs %.17g (rel diff %.3e)" label a b
         (Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)))

let suffix_stationary ~delta ~alpha =
  let chain = Suffix_chain.build ~delta ~alpha in
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  let solved = Chain.stationary_linear_solve chain in
  let powered = Chain.stationary_power_iteration chain in
  for i = 0 to Array.length closed - 1 do
    let label which =
      Printf.sprintf "pi_F[%s] %s vs closed form (delta=%d alpha=%g)"
        (Suffix_chain.state_label (Suffix_chain.state_of_index ~delta i))
        which delta alpha
    in
    close ~label:(label "linear-solve") ~rtol:1e-8 solved.(i) closed.(i);
    close ~label:(label "power-iteration") ~rtol:1e-6 powered.(i) closed.(i)
  done

module Sparse = Nakamoto_markov.Sparse

let suffix_stationary_sparse ~delta ~alpha =
  let sp = Suffix_chain.build_sparse ~delta ~alpha in
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  (* The ladder structure keeps censoring at O(1) fill per state, so a
     fill-budget blowout here is itself a bug. *)
  let censored =
    match Sparse.stationary_censor sp with
    | Some pi -> pi
    | None ->
      failwith
        (Printf.sprintf
           "suffix chain delta=%d: censoring blew its fill budget on a \
            ladder chain"
           delta)
  in
  let powered = Sparse.stationary_power sp in
  for i = 0 to Array.length closed - 1 do
    let label which =
      Printf.sprintf "pi_F[%s] %s vs closed form (delta=%d alpha=%g)"
        (Suffix_chain.state_label (Suffix_chain.state_of_index ~delta i))
        which delta alpha
    in
    close ~label:(label "censor") ~rtol:1e-10 censored.(i) closed.(i);
    close ~label:(label "sparse-power") ~rtol:1e-6 powered.(i) closed.(i)
  done

let conv_stationary_sparse ~delta p =
  let cc = Conv_chain.stationary_cross_check_sparse ~delta p in
  close ~label:"C_F||P Eq.44 vs Eq.40 (sparse path)" ~rtol:1e-8
    cc.Conv_chain.eq44 cc.Conv_chain.eq40;
  close ~label:"C_F||P Eq.44 vs sparse stationary" ~rtol:1e-7
    cc.Conv_chain.eq44 cc.Conv_chain.sparse_stationary;
  close ~label:"C_F||P Eq.44 vs sparse power" ~rtol:1e-5
    cc.Conv_chain.eq44 cc.Conv_chain.sparse_power

let conv_stationary ~delta p =
  let cc = Conv_chain.stationary_cross_check ~delta p in
  close ~label:"C_F||P closed form vs product form" ~rtol:1e-8
    cc.Conv_chain.closed_form cc.Conv_chain.product_form;
  close ~label:"C_F||P closed form vs linear solve" ~rtol:1e-7
    cc.Conv_chain.closed_form cc.Conv_chain.linear_solve;
  close ~label:"C_F||P closed form vs power iteration" ~rtol:1e-5
    cc.Conv_chain.closed_form cc.Conv_chain.power_iteration
