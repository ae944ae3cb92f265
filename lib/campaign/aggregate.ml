module Sim = Nakamoto_sim
module Stats = Nakamoto_prob.Stats

type observation = {
  rounds : int;
  convergence_opportunities : int;
  adversary_blocks : int;
  honest_blocks : int;
  h_rounds : int;
  h1_rounds : int;
  full : bool;
  violated : bool;
  max_reorg_depth : int;
  growth_rate : float;
  chain_quality : float;
}

let of_execution (r : Sim.Execution.result) =
  let cons = Sim.Metrics.check_consistency r in
  let growth = Sim.Metrics.chain_growth r in
  {
    rounds = r.config.Sim.Config.rounds;
    convergence_opportunities = r.convergence_opportunities;
    adversary_blocks = r.adversary_blocks;
    honest_blocks = r.honest_blocks;
    h_rounds = r.h_rounds;
    h1_rounds = r.h1_rounds;
    full = true;
    violated = cons.violations > 0;
    max_reorg_depth = r.max_reorg_depth;
    growth_rate = growth.growth_rate;
    chain_quality = Sim.Metrics.chain_quality r;
  }

let of_state_run (r : Sim.State_process.run) =
  {
    rounds = r.rounds;
    convergence_opportunities = r.convergence_opportunities;
    adversary_blocks = r.adversary_blocks;
    honest_blocks = r.honest_blocks;
    h_rounds = r.h_rounds;
    h1_rounds = r.h1_rounds;
    full = false;
    violated = false;
    max_reorg_depth = 0;
    growth_rate = 0.;
    chain_quality = 0.;
  }

let hist_depths = 33

type t = {
  mutable trials : int;
  mutable total_rounds : int;
  mutable audited_trials : int;
  mutable violations : int;
  mutable convergence_opportunities : int;
  mutable adversary_blocks : int;
  mutable honest_blocks : int;
  mutable h_rounds : int;
  mutable h1_rounds : int;
  mutable max_reorg : int;
  reorg_hist : int array;
  mutable growth : Stats.Summary.t;
  mutable quality : Stats.Summary.t;
  mutable reorg : Stats.Summary.t;
}

let create () =
  {
    trials = 0;
    total_rounds = 0;
    audited_trials = 0;
    violations = 0;
    convergence_opportunities = 0;
    adversary_blocks = 0;
    honest_blocks = 0;
    h_rounds = 0;
    h1_rounds = 0;
    max_reorg = 0;
    reorg_hist = Array.make hist_depths 0;
    growth = Stats.Summary.create ();
    quality = Stats.Summary.create ();
    reorg = Stats.Summary.create ();
  }

let observe t (o : observation) =
  t.trials <- t.trials + 1;
  t.total_rounds <- t.total_rounds + o.rounds;
  t.convergence_opportunities <-
    t.convergence_opportunities + o.convergence_opportunities;
  t.adversary_blocks <- t.adversary_blocks + o.adversary_blocks;
  t.honest_blocks <- t.honest_blocks + o.honest_blocks;
  t.h_rounds <- t.h_rounds + o.h_rounds;
  t.h1_rounds <- t.h1_rounds + o.h1_rounds;
  if o.full then begin
    t.audited_trials <- t.audited_trials + 1;
    if o.violated then t.violations <- t.violations + 1;
    if o.max_reorg_depth > t.max_reorg then t.max_reorg <- o.max_reorg_depth;
    let bin = min o.max_reorg_depth (hist_depths - 1) in
    t.reorg_hist.(bin) <- t.reorg_hist.(bin) + 1;
    Stats.Summary.add t.growth o.growth_rate;
    Stats.Summary.add t.quality o.chain_quality;
    Stats.Summary.add t.reorg (float_of_int o.max_reorg_depth)
  end

let merge a b =
  {
    trials = a.trials + b.trials;
    total_rounds = a.total_rounds + b.total_rounds;
    audited_trials = a.audited_trials + b.audited_trials;
    violations = a.violations + b.violations;
    convergence_opportunities =
      a.convergence_opportunities + b.convergence_opportunities;
    adversary_blocks = a.adversary_blocks + b.adversary_blocks;
    honest_blocks = a.honest_blocks + b.honest_blocks;
    h_rounds = a.h_rounds + b.h_rounds;
    h1_rounds = a.h1_rounds + b.h1_rounds;
    max_reorg = max a.max_reorg b.max_reorg;
    reorg_hist = Array.init hist_depths (fun i -> a.reorg_hist.(i) + b.reorg_hist.(i));
    growth = Stats.Summary.merge a.growth b.growth;
    quality = Stats.Summary.merge a.quality b.quality;
    reorg = Stats.Summary.merge a.reorg b.reorg;
  }

let trials t = t.trials
let total_rounds t = t.total_rounds
let audited_trials t = t.audited_trials
let violations t = t.violations
let convergence_opportunities t = t.convergence_opportunities
let adversary_blocks t = t.adversary_blocks
let honest_blocks t = t.honest_blocks

let violation_rate t =
  if t.audited_trials = 0 then nan
  else float_of_int t.violations /. float_of_int t.audited_trials

let wilson_interval t =
  if t.audited_trials = 0 then None
  else Some (Stats.wilson_interval ~hits:t.violations ~trials:t.audited_trials)

let per_round t count =
  if t.total_rounds = 0 then nan
  else float_of_int count /. float_of_int t.total_rounds

let convergence_rate t = per_round t t.convergence_opportunities
let adversary_rate t = per_round t t.adversary_blocks
let h_rate t = per_round t t.h_rounds
let h1_rate t = per_round t t.h1_rounds
let max_reorg_depth t = t.max_reorg
let reorg_histogram t = Array.copy t.reorg_hist
let growth_summary t = t.growth
let quality_summary t = t.quality

type snapshot = {
  s_trials : int;
  s_total_rounds : int;
  s_audited_trials : int;
  s_violations : int;
  s_convergence_opportunities : int;
  s_adversary_blocks : int;
  s_honest_blocks : int;
  s_h_rounds : int;
  s_h1_rounds : int;
  s_max_reorg_depth : int;
  s_reorg_hist : int array;
  s_growth : Stats.Summary.raw;
  s_quality : Stats.Summary.raw;
  s_reorg : Stats.Summary.raw;
}

let snapshot t =
  {
    s_trials = t.trials;
    s_total_rounds = t.total_rounds;
    s_audited_trials = t.audited_trials;
    s_violations = t.violations;
    s_convergence_opportunities = t.convergence_opportunities;
    s_adversary_blocks = t.adversary_blocks;
    s_honest_blocks = t.honest_blocks;
    s_h_rounds = t.h_rounds;
    s_h1_rounds = t.h1_rounds;
    s_max_reorg_depth = t.max_reorg;
    s_reorg_hist = Array.copy t.reorg_hist;
    s_growth = Stats.Summary.raw t.growth;
    s_quality = Stats.Summary.raw t.quality;
    s_reorg = Stats.Summary.raw t.reorg;
  }

let of_snapshot s =
  if Array.length s.s_reorg_hist <> hist_depths then
    invalid_arg "Aggregate.of_snapshot: histogram length mismatch";
  List.iter
    (fun c -> if c < 0 then invalid_arg "Aggregate.of_snapshot: negative count")
    [
      s.s_trials; s.s_total_rounds; s.s_audited_trials; s.s_violations;
      s.s_convergence_opportunities; s.s_adversary_blocks; s.s_honest_blocks;
      s.s_h_rounds; s.s_h1_rounds; s.s_max_reorg_depth;
    ];
  {
    trials = s.s_trials;
    total_rounds = s.s_total_rounds;
    audited_trials = s.s_audited_trials;
    violations = s.s_violations;
    convergence_opportunities = s.s_convergence_opportunities;
    adversary_blocks = s.s_adversary_blocks;
    honest_blocks = s.s_honest_blocks;
    h_rounds = s.s_h_rounds;
    h1_rounds = s.s_h1_rounds;
    max_reorg = s.s_max_reorg_depth;
    reorg_hist = Array.copy s.s_reorg_hist;
    growth = Stats.Summary.of_raw s.s_growth;
    quality = Stats.Summary.of_raw s.s_quality;
    reorg = Stats.Summary.of_raw s.s_reorg;
  }
