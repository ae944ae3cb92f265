(* Seeded input generators.  Every workload draws from its own stream of
   the --seed, so the same seed gives the same inputs, and the program
   under test receives only what is generated here. *)

module Core = Nakamoto_core
module Rng = Nakamoto_prob.Rng
module Spec = Nakamoto_campaign.Spec

let stream ~seed k = Rng.of_path ~seed:(Int64.of_int seed) [ k ]

(* The paper's Internet-scale operating point (Figure 1): Delta is far
   beyond enumerable, so assess never runs the Markov probe there. *)
let internet_n = 1e5
let internet_delta = 1e13

let rate_ratio ~nu ~c =
  let p = Core.Params.of_c ~n:internet_n ~delta:internet_delta ~nu ~c in
  Core.Params.adversary_rate p /. Core.Conv_chain.convergence_rate p

(* The c at which Confirmation's rate ratio adv/conv equals [rho].  The
   ratio falls as c grows, roughly as (nu/mu) exp(2 mu / c), which gives
   the starting bracket. *)
let c_for_ratio ~nu ~rho =
  let mu = 1. -. nu in
  let c0 = 2. *. mu /. log (rho *. mu /. nu) in
  let rec widen lo hi =
    if rate_ratio ~nu ~c:lo < rho then widen (lo /. 2.) hi
    else if rate_ratio ~nu ~c:hi > rho then widen lo (hi *. 2.)
    else (lo, hi)
  in
  let rec bisect lo hi k =
    let mid = 0.5 *. (lo +. hi) in
    if k = 0 then mid
    else if rate_ratio ~nu ~c:mid > rho then bisect mid hi (k - 1)
    else bisect lo mid (k - 1)
  in
  let lo, hi = widen (c0 /. 2.) (c0 *. 2.) in
  bisect lo hi 80

(* assess-settle.  The depth search costs O(z^2) in the depth z, and z
   depends on the rate ratio rho alone, so rho takes the midpoints of
   [count] equal strata of [0.05, 0.95]: the same z^2 tail, up to
   z = 4952 at rho = 0.95, on every seed.  The seed draws nu, hence c,
   and the order.  Uniform (nu, c) draws were rejected: a seed-dependent
   share of them lands outside the region or at the depth limit (2.5 s
   each), so throughput became a function of the seed.  nu/mu stays at
   most 0.9 rho so c is finite, which takes the lowest strata below
   nu = 0.05. *)
let settle_queries ~seed ~count =
  let g = stream ~seed 1 in
  let qs =
    Array.init count (fun i ->
        let rho =
          0.05 +. (0.9 *. (float_of_int i +. 0.5) /. float_of_int count)
        in
        let nu_hi = Float.min 0.45 (0.9 *. rho /. (1. +. (0.9 *. rho))) in
        let nu = 0.01 +. (Rng.float g *. (nu_hi -. 0.01)) in
        Core.Params.of_c ~n:internet_n ~delta:internet_delta ~nu
          ~c:(c_for_ratio ~nu ~rho))
  in
  Rng.shuffle g qs;
  qs

(* assess-enumerable: the ASSESSSCALE box.  Integer Delta 1800-2048 on
   the depth-3 plateau makes every query pay the Delta-state Markov probe
   and a trivial depth search, so per-query cost tracks Delta and uniform
   draws average out within a run. *)
let enumerable_queries ~seed ~count =
  let g = stream ~seed 2 in
  let log_range lo hi = lo *. exp (Rng.float g *. log (hi /. lo)) in
  Array.init count (fun _ ->
      let p = log_range 1.6e-6 1.9e-6 in
      let n = log_range 100. 140. in
      let delta = float_of_int (1800 + Rng.int g ~bound:249) in
      let nu = 0.012 +. (Rng.float g *. 0.004) in
      Core.Params.create ~p ~n ~delta ~nu)

(* serve-mixed RPCs: shallow Internet-scale points (rate ratio below
   0.7, a depth search of tens of steps, no probe), so an RPC costs
   microseconds of compute and its latency is the daemon's select loop
   and the connection handshake. *)
let rpc_points ~seed ~count =
  let g = stream ~seed 3 in
  Array.init count (fun _ ->
      let nu = 0.1 +. (Rng.float g *. 0.2) in
      let c = 3. *. exp (Rng.float g *. log (10. /. 3.)) in
      (nu, c))

(* Each campaign of a workload gets its own seed from the run's seed. *)
let campaign_seed ~seed ~workload k =
  Rng.seed_of_path ~seed:(Int64.of_int seed) [ 10 + workload; k ]

(* campaign-paper: the paper's n = 10^4, Delta = 256, c = 8 point under
   the Skip executor.  The consistency audit over 10^4-tip snapshots is
   most of each trial, and the snapshots set the peak RSS. *)
let paper_spec ~seed =
  {
    Spec.default with
    Spec.ps = [ 4.8828125e-8 ];
    ns = [ 10_000 ];
    deltas = [ 256 ];
    nus = [ 0.1; 0.25 ];
    trials_per_cell = 2;
    rounds = 20_000;
    mining_mode = Nakamoto_sim.Config.Skip;
    shard_size = 1;
    seed;
  }

(* campaign-small: the CLI's default grid under the Aggregate executor.
   The executor is most of each trial and the audit is cheap, the
   opposite balance to campaign-paper. *)
let small_spec ~seed =
  {
    Spec.default with
    Spec.trials_per_cell = 64;
    mining_mode = Nakamoto_sim.Config.Aggregate;
    seed;
  }

(* serve-mixed: tiny exact-mining shards of one trial each, so the lease
   round trips, the frame codec and the coordinator fold dominate. *)
let serve_spec ~seed ~trials =
  {
    Spec.default with
    Spec.ps = [ 0.02 ];
    ns = [ 8 ];
    deltas = [ 2 ];
    nus = [ 0.1; 0.3 ];
    trials_per_cell = trials;
    rounds = 200;
    shard_size = 1;
    seed;
  }
