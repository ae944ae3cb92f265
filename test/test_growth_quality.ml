open Helpers
module Growth_quality = Nakamoto_core.Growth_quality
module Params = Nakamoto_core.Params
module Sim = Nakamoto_sim

let p0 = Params.of_c ~n:40. ~delta:4. ~nu:0.25 ~c:2.5

let test_growth_bounds_ordered () =
  let lower = Growth_quality.growth_rate_lower_bound p0 in
  let upper = Growth_quality.growth_rate_upper_bound p0 in
  check_true "0 < lower" (lower > 0.);
  check_true "lower < upper" (lower < upper);
  close "upper is alpha" (Params.alpha p0) upper;
  close "lower formula"
    (Params.alpha p0 /. (1. +. (4. *. Params.alpha p0)))
    lower

let test_growth_window () =
  let lo, hi = Growth_quality.growth_in_window p0 ~rounds:1000 in
  close "window scales lower" (1000. *. Growth_quality.growth_rate_lower_bound p0) lo;
  close "window scales upper" (1000. *. Growth_quality.growth_rate_upper_bound p0) hi;
  check_raises_invalid "negative window" (fun () ->
      ignore (Growth_quality.growth_in_window p0 ~rounds:(-1)))

let test_quality_bounds () =
  close "folklore bound" (1. -. (0.25 /. 0.75)) (Growth_quality.quality_lower_bound p0);
  let adjusted = Growth_quality.quality_delta_adjusted p0 in
  check_true "delta haircut weakens the bound"
    (adjusted <= Growth_quality.quality_lower_bound p0 +. 1e-12);
  check_true "still in [0, 1]" (adjusted >= 0. && adjusted <= 1.);
  (* nu = 0: perfect quality. *)
  let honest = Params.of_c ~n:40. ~delta:4. ~nu:0. ~c:2.5 in
  close "no adversary, quality 1" 1. (Growth_quality.quality_lower_bound honest);
  (* near-half adversary at low c: bound collapses to 0, not negative. *)
  let hostile = Params.of_c ~n:40. ~delta:4. ~nu:0.49 ~c:0.2 in
  check_true "clamped at zero" (Growth_quality.quality_delta_adjusted hostile >= 0.)

let test_simulation_inside_envelope () =
  (* Idle-adversary runs must land inside the analytic envelope. *)
  List.iter
    (fun c ->
      let cfg =
        Sim.Config.with_c
          { Sim.Config.default with rounds = 8000; seed = 7L; nu = 0.25 }
          ~c
      in
      let r = Sim.Execution.run cfg in
      let growth = (Sim.Metrics.chain_growth r).growth_rate in
      let quality = Sim.Metrics.chain_quality r in
      let p = Params.of_sim_config cfg in
      check_true
        (Printf.sprintf "c=%g growth %.4f quality %.3f inside envelope" c growth
           quality)
        (Growth_quality.consistent_with_simulation ~growth ~quality p))
    [ 1.; 2.; 4.; 8. ]

let test_selfish_mining_degrades_quality () =
  (* Selfish mining pushes quality below the honest share once nu is past
     the gamma = 0 threshold — and always below an idle adversary. *)
  let quality nu strategy =
    let cfg = { (Sim.Scenarios.selfish ~seed:5L ~nu) with strategy } in
    Sim.Metrics.chain_quality (Sim.Execution.run cfg)
  in
  let idle = quality 0.4 Sim.Adversary.Idle in
  let selfish = quality 0.4 Sim.Adversary.Selfish_mining in
  check_true
    (Printf.sprintf "selfish %.3f < idle %.3f" selfish idle)
    (selfish < idle);
  check_true "profitable at nu = 0.4 (revenue exceeds share)"
    (1. -. selfish > 0.4);
  let weak = quality 0.15 Sim.Adversary.Selfish_mining in
  check_true "unprofitable at nu = 0.15" (1. -. weak < 0.15)

let test_delay_advantaged_selfish_mining () =
  (* With its delay control engaged (honest broadcasts held one extra
     round) and first-seen ties, selfish mining is profitable even for a
     small pool — the gamma ~ 1 regime. *)
  let revenue ~nu ~gamma1 =
    let base = Sim.Scenarios.selfish ~seed:5L ~nu in
    let cfg =
      if gamma1 then
        {
          base with
          tie_break = Nakamoto_chain.Block_tree.First_seen;
          delay_override = Some (Nakamoto_net.Network.Fixed 2);
        }
      else base
    in
    1. -. Sim.Metrics.chain_quality (Sim.Execution.run cfg)
  in
  check_true "gamma~1 dominates gamma=0 at nu = 0.3"
    (revenue ~nu:0.3 ~gamma1:true > revenue ~nu:0.3 ~gamma1:false);
  check_true "gamma~1 profitable even at nu = 0.1"
    (revenue ~nu:0.1 ~gamma1:true > 0.1);
  check_true "gamma=0 unprofitable at nu = 0.1"
    (revenue ~nu:0.1 ~gamma1:false < 0.1)

let props =
  [
    prop "bounds ordered across parameter space"
      Arbitrary.(
        pair (float_range ~lo:0. ~hi:0.49) (float_range ~lo:0.2 ~hi:50.))
      (fun (nu, c) ->
        let p = Params.of_c ~n:100. ~delta:8. ~nu ~c in
        let lower = Growth_quality.growth_rate_lower_bound p in
        let upper = Growth_quality.growth_rate_upper_bound p in
        lower > 0. && lower <= upper
        && Growth_quality.quality_delta_adjusted p
           <= Growth_quality.quality_lower_bound p +. 1e-12);
  ]

let suite =
  [
    case "growth bounds ordered" test_growth_bounds_ordered;
    case "growth window" test_growth_window;
    case "quality bounds" test_quality_bounds;
    case "simulation inside envelope" test_simulation_inside_envelope;
    case "selfish mining degrades quality" test_selfish_mining_degrades_quality;
    case "delay-advantaged selfish mining (gamma ~ 1)"
      test_delay_advantaged_selfish_mining;
  ]
  @ props
