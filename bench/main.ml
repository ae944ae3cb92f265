(* Paper-artifact regeneration harness.

   With no arguments it regenerates every table and figure of the paper
   (and the extension experiments documented in DESIGN.md), printing the
   same rows/series the paper reports.  Three smoke modes gate the fast
   paths for `make check`; throughput figures live in bench/perf. *)

module Core = Nakamoto_core
module Sim = Nakamoto_sim
module Markov = Nakamoto_markov
module Prob = Nakamoto_prob
module Table = Nakamoto_numerics.Table

let section name = Printf.printf "\n########## %s ##########\n\n" name

(* With `--csv DIR` on the command line, every table is also written to
   DIR/<slug>.csv for external plotting. *)
let csv_dir =
  let rec scan = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let table_counter = ref 0

let print_table t =
  print_string (Table.render t);
  match csv_dir with
  | None -> ()
  | Some dir ->
    incr table_counter;
    let path = Filename.concat dir (Printf.sprintf "table_%02d.csv" !table_counter) in
    Table.save_csv t ~path;
    Printf.printf "(csv: %s)\n" path

(* ------------------------------------------------------------------ *)
(* FIG1: Figure 1 series                                               *)
(* ------------------------------------------------------------------ *)

let regen_fig1 () =
  section "FIG1: Figure 1 - tolerable nu vs c (n=1e5, Delta=1e13)";
  let rows = Core.Figure1.series ~c_grid:(Core.Figure1.default_c_grid ()) () in
  print_table (Core.Figure1.to_table rows);
  print_newline ();
  print_string (Core.Figure1.to_plot rows);
  Printf.printf "shape invariants (ours >= PSS, attack >= ours, monotone): %b\n"
    (Core.Figure1.shape_invariants_hold rows);
  (* Interval-arithmetic certification: prove that every plotted point of
     the magenta curve brackets the true nu_max to within 1e-9. *)
  let certified =
    List.length
      (List.filter
         (fun (r : Core.Figure1.row) ->
           Core.Certify.certify_neat_numax ~c:r.c () <> None)
         rows)
  in
  Printf.printf
    "ours-curve points certified to +-1e-9 by interval arithmetic: %d / %d\n"
    certified (List.length rows)

(* ------------------------------------------------------------------ *)
(* FIG2: suffix chain census + DOT                                     *)
(* ------------------------------------------------------------------ *)

let regen_fig2 () =
  section "FIG2: Figure 2 - suffix chain C_F structure";
  let censuses =
    List.map (fun d -> Core.Figure2.census ~delta:d ~alpha:0.2) [ 2; 3; 4; 8; 16 ]
  in
  print_table (Core.Figure2.to_table censuses);
  Printf.printf "\nDOT rendering for Delta = 2:\n%s"
    (Core.Figure2.dot ~delta:2 ~alpha:0.2)

(* ------------------------------------------------------------------ *)
(* TAB1: Table I with values                                           *)
(* ------------------------------------------------------------------ *)

let regen_tab1 () =
  section "TAB1: Table I - notation with computed values";
  let fig1_point = Core.Params.figure1_point ~nu:0.25 ~c:3. in
  print_table (Core.Table1.for_params fig1_point);
  Printf.printf "identities hold: %b\n\n" (Core.Table1.identities_hold fig1_point);
  print_table (Core.Table1.for_params Core.Params.bitcoin_like);
  Printf.printf "identities hold: %b\n"
    (Core.Table1.identities_hold Core.Params.bitcoin_like)

(* ------------------------------------------------------------------ *)
(* RMK1: Remark 1 regimes                                              *)
(* ------------------------------------------------------------------ *)

let regen_rmk1 () =
  section "RMK1: Remark 1 - (delta1, delta2) regimes at Delta = 1e13";
  print_table
    (Core.Theorem2.remark1_table
       ~title:
         "Remark 1 (paper: [1e-63, 0.5-1e-7] x 1+5e-5; [1e-18, 0.5-1e-9] x 1+2e-3)")

(* ------------------------------------------------------------------ *)
(* EQ37: closed form vs numeric stationary (ablation #2)               *)
(* ------------------------------------------------------------------ *)

let regen_eq37 () =
  section "EQ37: stationary distribution of C_F - closed form vs solves";
  let t =
    Table.create ~title:"Eq. 37 vs linear solve vs power iteration"
      ~columns:[ "Delta"; "alpha"; "|closed-solve|"; "|closed-power|"; "sum-1" ]
  in
  List.iter
    (fun (delta, alpha) ->
      let chain = Core.Suffix_chain.build ~delta ~alpha in
      let closed = Core.Suffix_chain.stationary_closed_form ~delta ~alpha in
      let solve = Markov.Chain.stationary_linear_solve chain in
      let power = Markov.Chain.stationary_power_iteration chain in
      let err a b =
        let m = ref 0. in
        Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
        !m
      in
      Table.add_row t
        [
          Table.Int delta; Table.Float alpha; Table.Sci (err closed solve);
          Table.Sci (err closed power);
          Table.Sci (Array.fold_left ( +. ) (-1.) closed);
        ])
    [ (2, 0.5); (5, 0.23); (10, 0.04); (50, 0.1); (200, 0.02) ];
  print_table t

(* ------------------------------------------------------------------ *)
(* EQ44: convergence-opportunity rate, three ways                      *)
(* ------------------------------------------------------------------ *)

let regen_eq44 () =
  section
    "EQ44: pi(HN>=D || H1 N^D) = abar^2D alpha1 - theory vs chain vs simulation";
  let t =
    Table.create ~title:"Eq. 44 cross-validation (1e6 simulated rounds per row)"
      ~columns:
        [ "Delta"; "closed form"; "explicit chain"; "Monte Carlo"; "MC 95% lo";
          "MC 95% hi"; "theory inside CI" ]
  in
  List.iter
    (fun delta ->
      let params =
        Core.Params.create ~n:50. ~delta:(float_of_int delta) ~p:0.01 ~nu:0.2
      in
      let closed = Core.Conv_chain.convergence_rate params in
      let explicit = Core.Conv_chain.build_explicit ~delta params in
      let pi = Markov.Chain.stationary_linear_solve explicit.chain in
      let rounds = 1_000_000 in
      let run =
        Sim.State_process.run
          ~rng:(Prob.Rng.create ~seed:(Int64.of_int (1000 + delta)))
          { Sim.State_process.honest = 40; adversarial = 10; p = 0.01; delta }
          ~rounds
      in
      let lo, hi =
        Prob.Stats.wilson_interval ~hits:run.convergence_opportunities
          ~trials:rounds
      in
      Table.add_row t
        [
          Table.Int delta; Table.Sci closed;
          Table.Sci pi.(explicit.convergence_state);
          Table.Sci
            (float_of_int run.convergence_opportunities /. float_of_int rounds);
          Table.Sci lo; Table.Sci hi;
          Table.Text
            (if closed >= lo -. 1e-4 && closed <= hi +. 1e-4 then "yes" else "NO");
        ])
    [ 1; 2; 3 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* THM1: exact region converging to the neat bound (ablation #4)       *)
(* ------------------------------------------------------------------ *)

let regen_thm1 () =
  section "THM1: exact Theorem 1 nu_max -> neat bound as n, Delta grow";
  let c = 2.0 in
  let neat = Core.Bounds.neat_numax ~c in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "nu_max under Ineq. 10 at c = %g (neat limit %.6f)" c neat)
      ~columns:[ "n"; "Delta"; "Thm1 exact"; "Thm2 exact"; "neat - Thm1" ]
  in
  List.iter
    (fun (n, delta) ->
      let thm1 = Core.Bounds.theorem1_numax ~n ~delta ~c () in
      let thm2 = Core.Bounds.theorem2_numax ~delta ~eps2:1e-9 ~c in
      Table.add_row t
        [
          Table.Float n; Table.Float delta; Table.Float thm1; Table.Float thm2;
          Table.Sci (neat -. thm1);
        ])
    [ (10., 4.); (40., 4.); (100., 10.); (1e3, 1e3); (1e4, 1e4); (1e5, 1e13) ];
  print_table t;
  print_newline ();
  (* Designer view of the same curve: the marginal value of c. *)
  print_table
    (Core.Sensitivity.marginal_value_table
       ~c_grid:[ 0.5; 1.; 2.; 4.; 8.; 16.; 64. ])

(* ------------------------------------------------------------------ *)
(* LEM: the implication chain audit                                    *)
(* ------------------------------------------------------------------ *)

let regen_lem () =
  section "LEM: Lemmas 2-8 implication chain (52)-(59)";
  let t =
    Table.create ~title:"verify_chain at points satisfying Ineqs. 50-51"
      ~columns:[ "nu"; "Delta"; "n"; "eps1"; "eps2"; "c"; "all steps hold" ]
  in
  List.iter
    (fun (nu, delta, n, eps1, eps2) ->
      let c = Core.Bounds.theorem2_c_min ~nu ~delta ~eps1 ~eps2 *. 1.000001 in
      let p = Core.Params.of_c ~n ~delta ~nu ~c in
      let r = Core.Lemmas.verify_chain ~eps1 ~eps2 p in
      Table.add_row t
        [
          Table.Float nu; Table.Float delta; Table.Float n; Table.Float eps1;
          Table.Float eps2; Table.Float c;
          Table.Text (string_of_bool r.all_hold);
        ])
    [
      (0.25, 1e13, 1e5, 0.5, 0.1); (0.4, 1e2, 1e3, 0.3, 0.01);
      (0.1, 1e6, 1e5, 0.7, 1.0); (0.49, 1e4, 1e6, 0.2, 0.5);
      (0.01, 10., 100., 0.9, 0.001);
    ];
  print_table t

(* ------------------------------------------------------------------ *)
(* ATK: simulated consistency on both sides of the theory              *)
(* ------------------------------------------------------------------ *)

let scenario_row name cfg =
  let r = Sim.Execution.run cfg in
  let cons = Sim.Metrics.check_consistency r in
  let growth = Sim.Metrics.chain_growth r in
  [
    Table.Text name; Table.Float (Sim.Config.c cfg);
    Table.Float cfg.Sim.Config.nu; Table.Int r.honest_blocks;
    Table.Int r.adversary_blocks; Table.Int r.convergence_opportunities;
    Table.Int r.max_reorg_depth;
    Table.Text (Printf.sprintf "%d/%d" cons.violations cons.pairs_checked);
    Table.Float growth.growth_rate;
    Table.Float (Sim.Metrics.chain_quality r);
  ]

let regen_atk () =
  section "ATK: the PSS Remark 8.5 attack, simulated (Delta-delay protocol)";
  let t =
    Table.create
      ~title:
        "Consistency above vs below the bounds (expect: violations only in the attack zone)"
      ~columns:
        [ "scenario"; "c"; "nu"; "honest"; "adv"; "conv opps"; "max reorg";
          "violations(T)"; "growth"; "quality" ]
  in
  Table.add_row t (scenario_row "honest" (Sim.Scenarios.honest_baseline ~seed:2025L));
  Table.add_row t
    (scenario_row "safe nu=.25" (Sim.Scenarios.safe_zone ~seed:2025L ~nu:0.25));
  Table.add_row t
    (scenario_row "safe nu=.33" (Sim.Scenarios.safe_zone ~seed:2025L ~nu:0.33));
  Table.add_row t
    (scenario_row "attack nu=.30" (Sim.Scenarios.attack_zone ~seed:2025L ~nu:0.30));
  Table.add_row t
    (scenario_row "attack nu=.40" (Sim.Scenarios.attack_zone ~seed:2025L ~nu:0.40));
  Table.add_row t (scenario_row "split world" (Sim.Scenarios.split_world ~seed:2025L));
  print_table t

(* ------------------------------------------------------------------ *)
(* PHASE: simulated (c, nu) phase diagram vs the analytic regions      *)
(* ------------------------------------------------------------------ *)

let regen_phase () =
  section "PHASE: deep-reorg successes across the (c, nu) plane vs analytic regions";
  let cs = [ 0.25; 0.5; 1.; 2.; 4. ] in
  let nus = [ 0.15; 0.25; 0.35; 0.45 ] in
  let t =
    Table.create
      ~title:
        "cells: successful 12-deep reorgs in 6000 rounds | analytic region \
         (SAFE = above 2mu/ln(mu/nu), ATTACK = below the PSS attack line, \
         GAP between).  Consistency is exponential in T, so SAFE cells may \
         show a stray success near the boundary but never a stream of them."
      ~columns:("nu \\ c" :: List.map (Printf.sprintf "%g") cs)
  in
  List.iter
    (fun nu ->
      let cells =
        List.map
          (fun c ->
            let cfg = Sim.Scenarios.at_c ~seed:4242L ~nu ~c ~rounds:6000 in
            let r = Sim.Execution.run cfg in
            let region =
              if c > Core.Bounds.neat_c_min ~nu then "SAFE"
              else if nu > Core.Bounds.pss_attack_nu ~c then "ATTACK"
              else "GAP"
            in
            Table.Text (Printf.sprintf "%d | %s" r.adversary_releases region))
          cs
      in
      Table.add_row t (Table.Float nu :: cells))
    nus;
  print_table t

(* ------------------------------------------------------------------ *)
(* GAP: probing the open region with every implemented adversary       *)
(* ------------------------------------------------------------------ *)

let regen_gap () =
  section
    "GAP: probing the region between our bound and the PSS attack line";
  (* The paper's conclusion names this gap as the open question.  We pit
     every implemented adversary against points inside it (each with its
     own worst delay policy) and report the deepest consistency damage
     achieved - an empirical lower bound on what the region tolerates. *)
  let t =
    Table.create
      ~title:
        "max reorg depth / releases over 8000 rounds per strategy (nu, c inside the gap)"
      ~columns:
        [ "nu"; "c"; "private-chain"; "balance"; "selfish+delay";
          "sensitivity d nu/d c" ]
  in
  List.iter
    (fun (nu, c) ->
      let run strategy delay_override tie_break =
        let cfg =
          Sim.Config.with_c
            {
              Sim.Config.default with
              nu;
              rounds = 8000;
              seed = 1234L;
              strategy;
              truncate = 6;
              snapshot_interval = 400;
              delay_override;
              tie_break;
            }
            ~c
        in
        let r = Sim.Execution.run cfg in
        Printf.sprintf "%d / %d" r.max_reorg_depth r.adversary_releases
      in
      let boundary = Nakamoto_chain.Block_tree.Prefer_honest in
      Table.add_row t
        [
          Table.Float nu; Table.Float c;
          Table.Text
            (run (Sim.Adversary.Private_chain { reorg_target = 8 }) None boundary);
          Table.Text
            (run (Sim.Adversary.Balance { group_boundary = 15 }) None boundary);
          Table.Text
            (run Sim.Adversary.Selfish_mining
               (Some (Nakamoto_net.Network.Fixed 2))
               Nakamoto_chain.Block_tree.First_seen);
          Table.Float (Core.Sensitivity.numax_slope ~c);
        ])
    [ (0.2, 0.45); (0.3, 1.2); (0.4, 2.2) ];
  print_table t;
  print_endline
    "(cells: deepest reorg / successful deep releases; the gap is where \
     damage is real but bounded - neither the safe zone's silence nor the \
     attack zone's collapse)"

(* ------------------------------------------------------------------ *)
(* SCALE: behaviour depends on c, not on n and Delta separately        *)
(* ------------------------------------------------------------------ *)

let regen_scale () =
  section "SCALE: c-invariance - the substitution argument of DESIGN.md, measured";
  (* Fix c on both sides of the theory and vary (n, Delta) by an order of
     magnitude each: the attack's success rate and the safe zone's
     cleanliness must depend on c alone (up to small-system corrections). *)
  let t =
    Table.create
      ~title:
        "deep-reorg successes per 4000 rounds at fixed c across system scales"
      ~columns:
        [ "n"; "Delta"; "attack c=0.26 nu=.3"; "safe c=4.1 nu=.25" ]
  in
  List.iter
    (fun (n, delta) ->
      let run ~nu ~c =
        let cfg =
          Sim.Config.with_c
            {
              Sim.Config.default with
              n;
              delta;
              nu;
              rounds = 4000;
              seed = 31L;
              strategy = Sim.Adversary.Private_chain { reorg_target = 12 };
              truncate = 6;
              snapshot_interval = 400;
            }
            ~c
        in
        (Sim.Execution.run cfg).adversary_releases
      in
      Table.add_row t
        [
          Table.Int n; Table.Int delta;
          Table.Int (run ~nu:0.3 ~c:0.2625);
          Table.Int (run ~nu:0.25 ~c:4.1);
        ])
    [ (20, 2); (40, 4); (100, 8); (200, 16) ];
  print_table t;
  print_endline
    "(attack-zone success counts stay an order of magnitude above the safe \
     zone's at every scale: c is the governing dimension)"

(* ------------------------------------------------------------------ *)
(* CONC: concentration (Ineqs. 19-20) empirically vs bounds            *)
(* ------------------------------------------------------------------ *)

let regen_conc () =
  section "CONC: concentration of C and A over windows (Ineqs. 19-20, 47, 49)";
  let cfg = { Sim.State_process.honest = 40; adversarial = 10; p = 0.01; delta = 3 } in
  let params = Core.Params.create ~n:50. ~delta:3. ~p:0.01 ~nu:0.2 in
  let t =
    Table.create
      ~title:"Empirical tail frequencies over 400 windows (delta2 = delta3 = 0.2)"
      ~columns:
        [ "window T"; "P[C <= 0.8 E C] emp"; "P[A >= 1.2 E A] emp";
          "Ineq.49 bound on A-tail" ]
  in
  List.iter
    (fun window_length ->
      let windows = 400 in
      let w =
        Sim.State_process.window_counts
          ~rng:(Prob.Rng.create ~seed:99L)
          cfg ~windows ~window_length
      in
      let e_c =
        Core.Conv_chain.expected_convergence_count params ~horizon:window_length
      in
      let e_a =
        Core.Conv_chain.expected_adversary_blocks params ~horizon:window_length
      in
      let frac pred =
        float_of_int
          (Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 w)
        /. float_of_int windows
      in
      let c_tail = frac (fun (c, _) -> float_of_int c <= 0.8 *. e_c) in
      let a_tail = frac (fun (_, a) -> float_of_int a >= 1.2 *. e_a) in
      let a_bound =
        Prob.Tail_bounds.binomial_upper_tail
          (Prob.Binomial.create ~trials:(window_length * 10) ~p:0.01)
          ~delta:0.2
      in
      Table.add_row t
        [
          Table.Int window_length; Table.Float c_tail; Table.Float a_tail;
          Table.Sci a_bound;
        ])
    [ 200; 800; 3200; 12800 ];
  print_table t;
  print_endline
    "(both empirical tails must decay toward 0 as T grows; the A-tail must stay below the bound)"

(* ------------------------------------------------------------------ *)
(* DECAY: P[reorg deeper than T] decays exponentially in T             *)
(* ------------------------------------------------------------------ *)

let regen_decay () =
  section "DECAY: consistency failure probability vs T (Definition 1's 'overwhelming in T')";
  (* Many independent medium-length executions just above the bound; the
     fraction with a reorg deeper than T must fall off exponentially. *)
  let nu = 0.3 in
  let runs = 60 in
  let cfg seed =
    {
      (Sim.Scenarios.at_c ~seed ~nu
         ~c:(1.2 *. Core.Bounds.neat_c_min ~nu)
         ~rounds:3000)
      with
      Sim.Config.strategy = Sim.Adversary.Private_chain { reorg_target = 1 };
    }
  in
  let depths =
    List.init runs (fun i ->
        (Sim.Execution.run (cfg (Int64.of_int (7000 + i)))).max_reorg_depth)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "fraction of %d runs (3000 rounds, nu=%.2f, c=1.2x bound) with max reorg > T"
           runs nu)
      ~columns:[ "T"; "P[max reorg > T] empirical"; "runs exceeding" ]
  in
  List.iter
    (fun threshold ->
      let exceeding = List.length (List.filter (fun d -> d > threshold) depths) in
      Table.add_row t
        [
          Table.Int threshold;
          Table.Float (float_of_int exceeding /. float_of_int runs);
          Table.Int exceeding;
        ])
    [ 0; 1; 2; 3; 4; 6; 8; 12 ];
  print_table t;
  print_endline "(the tail must fall toward 0 as T grows - exponentially, per Definition 1)"

(* ------------------------------------------------------------------ *)
(* EXT: chain growth and chain quality (paper's future work)           *)
(* ------------------------------------------------------------------ *)

let regen_ext () =
  section "EXT: chain growth & quality across c (extension; paper SS II future work)";
  let t =
    Table.create
      ~title:
        "Idle adversary, n = 40, Delta = 4: growth under instant vs worst-case \
         (Delta) delays against the alpha/(1+Delta alpha) lower bound"
      ~columns:
        [ "c"; "growth (delay 1)"; "growth (delay D)"; "lower bound";
          "upper bound (alpha)"; "quality" ]
  in
  List.iter
    (fun c ->
      let base =
        Sim.Config.with_c
          { Sim.Config.default with rounds = 8000; seed = 7L; nu = 0.25 }
          ~c
      in
      let run cfg = (Sim.Metrics.chain_growth (Sim.Execution.run cfg)).growth_rate in
      let fast = run base in
      let slow =
        run { base with delay_override = Some Nakamoto_net.Network.Maximal }
      in
      let p = Core.Params.of_sim_config base in
      Table.add_row t
        [
          Table.Float c; Table.Float fast; Table.Float slow;
          Table.Float (Core.Growth_quality.growth_rate_lower_bound p);
          Table.Float (Core.Growth_quality.growth_rate_upper_bound p);
          Table.Float (Sim.Metrics.chain_quality (Sim.Execution.run base));
        ])
    [ 0.5; 1.; 2.; 4.; 8. ];
  print_table t;
  print_endline
    "(instant delivery tracks the alpha ceiling; Delta-delayed delivery drops \
     toward the alpha/(1+Delta alpha) floor — the folklore bound is about \
     worst-case delays)"

(* ------------------------------------------------------------------ *)
(* EXT2: selfish mining revenue (chain quality under withholding)      *)
(* ------------------------------------------------------------------ *)

let regen_ext2 () =
  section "EXT2: Eyal-Sirer selfish mining - revenue vs honest share";
  let t =
    Table.create
      ~title:
        "Selfish revenue: gamma = 0 (honest-preferring ties, instant honest \
         propagation) vs delay-advantaged gamma ~ 1 (first-seen ties, honest \
         broadcasts held one extra round)"
      ~columns:
        [ "nu"; "revenue (gamma=0)"; "revenue (gamma~1)"; "honest share";
          "profitable g=0"; "profitable g~1" ]
  in
  List.iter
    (fun nu ->
      let revenue tie_break delay_override =
        let cfg =
          { (Sim.Scenarios.selfish ~seed:5L ~nu) with tie_break; delay_override }
        in
        1. -. Sim.Metrics.chain_quality (Sim.Execution.run cfg)
      in
      (* gamma = 0: deterministic honest-preferring ties, instant honest
         propagation - the attacker loses every race. *)
      let g0 = revenue Nakamoto_chain.Block_tree.Prefer_honest None in
      (* gamma ~ 1: the attacker uses its delay control to hold honest
         broadcasts one extra round (releases, sent point-to-point, still
         travel in one), and first-seen ties keep miners on whichever
         block landed first - the attacker's. *)
      let fs =
        revenue Nakamoto_chain.Block_tree.First_seen
          (Some (Nakamoto_net.Network.Fixed 2))
      in
      Table.add_row t
        [
          Table.Float nu; Table.Float g0; Table.Float fs; Table.Float nu;
          Table.Text (string_of_bool (g0 > nu));
          Table.Text (string_of_bool (fs > nu));
        ])
    [ 0.1; 0.2; 0.3; 0.35; 0.4; 0.45 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* CONF: confirmation-depth calculator (practitioner extension)        *)
(* ------------------------------------------------------------------ *)

let regen_conf () =
  section "CONF: settlement depths from the paper's conservative rates";
  let assessments =
    List.map
      (fun nu -> Core.Confirmation.assess (Core.Params.of_c ~n:1e5 ~delta:10. ~nu ~c:6.))
      [ 0.05; 0.1; 0.2; 0.3 ]
  in
  print_table (Core.Confirmation.to_table assessments);
  (* Cross-check the race analysis three ways at one point. *)
  let closed =
    Core.Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
      ~deficit:3
  in
  let absorbing =
    Core.Confirmation.overtake_probability_bounded ~honest_rate:0.1
      ~adversary_rate:0.04 ~deficit:3 ~give_up_behind:60
  in
  Printf.printf
    "\novertake from 3 behind at rates 0.04/0.1: closed %.8f, absorbing-chain %.8f\n"
    closed absorbing

(* ------------------------------------------------------------------ *)
(* CONT: the continuous-time limit and the neat bound                  *)
(* ------------------------------------------------------------------ *)

let regen_cont () =
  section "CONT: the Poisson limit - where the neat bound's closed form lives";
  (* 1. Discrete -> continuous convergence at fixed c. *)
  let c = 2.5 and mu = 0.75 and n = 1e5 in
  let continuous = mu /. c *. exp (-2. *. mu /. c) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Delta x (discrete rate) -> continuous rate mu/c e^(-2mu/c) = %.6f at c = %g"
           continuous c)
      ~columns:[ "Delta (rounds)"; "Delta x abar^2D alpha1"; "rel. gap" ]
  in
  List.iter
    (fun delta_rounds ->
      let p = 1. /. (c *. n *. float_of_int delta_rounds) in
      let discrete =
        Sim.Poisson.discrete_rate_per_time ~p ~n ~mu ~delta_rounds
        *. float_of_int delta_rounds
      in
      Table.add_row t
        [
          Table.Int delta_rounds; Table.Float discrete;
          Table.Sci (Float.abs (discrete -. continuous) /. continuous);
        ])
    [ 4; 16; 64; 1024; 100_000 ];
  print_table t;
  (* 2. Simulated continuous process vs its closed form, and the identity
     with the neat bound. *)
  let cfg = { Sim.Poisson.lambda = 1.; mu = 0.75; delta = 1. /. c } in
  let r =
    Sim.Poisson.simulate ~rng:(Prob.Rng.create ~seed:77L) cfg ~horizon:500_000.
  in
  Printf.printf
    "\nPoisson simulation (lambda=1, mu=0.75, delta=1/c): isolated rate %.6f \
     vs closed form %.6f; margin sign matches the neat bound: %b\n"
    (float_of_int r.isolated_honest /. r.horizon)
    (Sim.Poisson.isolated_rate cfg)
    (Sim.Poisson.neat_bound_equivalent cfg)

(* ------------------------------------------------------------------ *)
(* ABL: ablations #1 and #3                                            *)
(* ------------------------------------------------------------------ *)

let regen_abl () =
  section "ABL: ablations - log domain necessity & the Kiffer [6] accounting error";
  let t =
    Table.create
      ~title:"#1: linear vs log evaluation of abar^2D alpha1 (nu=0.25, c=3)"
      ~columns:[ "Delta"; "linear"; "via logs"; "verdict" ]
  in
  List.iter
    (fun delta ->
      let p = Core.Params.of_c ~n:1e5 ~delta ~nu:0.25 ~c:3. in
      let linear = (Core.Params.abar p ** (2. *. delta)) *. Core.Params.alpha1 p in
      let log_form = exp (Core.Conv_chain.log_convergence_rate p) in
      Table.add_row t
        [
          Table.Float delta; Table.Sci linear; Table.Sci log_form;
          Table.Text
            (if linear = 0. && log_form > 0. then "LINEAR UNDERFLOW"
             else if
               log_form > 0. && Float.abs (linear -. log_form) /. log_form > 1e-6
             then "drift"
             else "agree");
        ])
    [ 1e2; 1e6; 1e10; 1e13 ];
  print_table t;
  print_newline ();
  let t2 =
    Table.create
      ~title:
        "#3: corrected (alpha1) vs flawed (p mu n) accounting in Ineq. 10 margins"
      ~columns:[ "nu"; "c"; "correct margin"; "flawed margin"; "flawed overstates" ]
  in
  List.iter
    (fun (nu, c) ->
      let p = Core.Params.of_c ~n:100. ~delta:10. ~nu ~c in
      let correct = Core.Bounds.theorem1_margin p in
      let flawed = Core.Bounds.flawed_theorem1_margin p in
      Table.add_row t2
        [
          Table.Float nu; Table.Float c; Table.Float correct; Table.Float flawed;
          Table.Text (string_of_bool (flawed > correct));
        ])
    [ (0.25, 1.5); (0.3, 1.2); (0.4, 2.5); (0.45, 5.) ];
  print_table t2;
  print_newline ();
  (* The structural half of the paper's [6] critique: a two-state chain
     cannot reproduce the suffix structure. *)
  print_table
    (Core.Kiffer_comparison.to_table
       [
         Core.Params.create ~n:50. ~delta:3. ~p:0.01 ~nu:0.2;
         Core.Params.create ~n:100. ~delta:5. ~p:0.002 ~nu:0.25;
         Core.Params.create ~n:40. ~delta:4. ~p:0.005 ~nu:0.3;
       ])

(* ------------------------------------------------------------------ *)
(* Smoke floors (wired into `make check`)                              *)
(* ------------------------------------------------------------------ *)

(* Each smoke mode races a fast path against its baseline, prints the
   measured ratio and exits nonzero when the floor is broken.  The
   repository benchmark in bench/perf owns every throughput figure; these
   are pass/fail gates only. *)

let fail msg =
  print_endline ("FAIL: " ^ msg);
  exit 1

(* Single-shot timing of a microsecond-scale run is all clock noise and
   first-run state; rerun until ~50ms of work has accumulated and
   average.  A run that exceeds the floor in one shot (the dense LU
   solve, the exact executor) is never repeated. *)
let time_averaged f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt0 = Unix.gettimeofday () -. t0 in
  if dt0 >= 0.05 then (result, dt0)
  else begin
    let reps = max 1 (int_of_float (0.05 /. Float.max dt0 1e-7)) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    (result, dt)
  end

let allocated_words () =
  Gc.minor ();
  Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Simulated rounds per second of Execution.run under Fixed-2 delays
   with c = 1/(p n Delta) held fixed (so p scales as 1/n), the rounds
   the executor actually processed and the words its first run
   allocated (the same on every run of a fixed config). *)
let executor_rate ~n ~mode ~rounds ~c ~delta =
  let cfg =
    Sim.Config.with_c
      {
        Sim.Config.default with
        n;
        nu = 0.25;
        delta;
        rounds;
        seed = 17L;
        snapshot_interval = max 1 rounds;
        delay_override = Some (Nakamoto_net.Network.Fixed 2);
        mining_mode = mode;
      }
      ~c
  in
  let words = ref nan in
  let run () =
    if Float.is_nan !words then begin
      let before = allocated_words () in
      let r = Sim.Execution.run cfg in
      words := allocated_words () -. before;
      r
    end
    else Sim.Execution.run cfg
  in
  let r, dt = time_averaged run in
  ( (if dt > 0. then float_of_int rounds /. dt else infinity),
    r.Sim.Execution.processed_rounds,
    !words )

(* `--execscale-smoke`: Aggregate must not lose to Exact at n = 10^4;
   Skip must run 20x Aggregate at the sparse paper-scale cell (c = 8,
   Delta = 256, per-round success probability near 1/2048, so almost
   every round is empty); Binomial.sample must cost the same at equal
   mean whatever the trial count. *)
let execscale_smoke () =
  section
    "EXECSCALE (smoke): aggregate must out-run exact, skip must out-run \
     aggregate 20x at the paper scale (n = 10^4)";
  let dense mode =
    let rate, _, words =
      executor_rate ~n:10_000 ~mode ~rounds:50 ~c:2.5 ~delta:4
    in
    (rate, words)
  in
  let exact, exact_words = dense Sim.Config.Exact in
  let agg, agg_words = dense Sim.Config.Aggregate in
  Printf.printf "exact: %.1f rounds/s, aggregate: %.1f rounds/s (%.0fx)\n"
    exact agg (agg /. exact);
  Printf.printf "words per trial: exact %.0f, aggregate %.0f\n" exact_words
    agg_words;
  if not (agg >= exact) then
    fail "aggregate mode slower than exact at n = 10^4";
  let rounds = 400_000 in
  let sparse mode =
    executor_rate ~n:10_000 ~mode ~rounds ~c:8.0 ~delta:256
  in
  let agg_sparse, _, agg_sparse_words = sparse Sim.Config.Aggregate in
  let skip_sparse, skip_events, skip_words = sparse Sim.Config.Skip in
  Printf.printf
    "paper-scale: aggregate %.1f rounds/s, skip %.1f rounds/s (%.0fx; \
     %d events for %d rounds)\n"
    agg_sparse skip_sparse
    (skip_sparse /. agg_sparse)
    skip_events rounds;
  Printf.printf "paper-scale words per trial: aggregate %.0f, skip %.0f\n"
    agg_sparse_words skip_words;
  if not (skip_sparse >= 20. *. agg_sparse) then
    fail "skip mode below 20x aggregate at the paper-scale cell";
  (* Two BTPE draws at equal mean (10^3) but 10x apart in trials should
     cost about the same.  A per-trial sampler would show a ~10x ratio;
     allow 5x for noise. *)
  let time_sampler ~trials ~p =
    let d = Prob.Binomial.create ~trials ~p in
    let g = Prob.Rng.create ~seed:23L in
    let reps = 200_000 in
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    for _ = 1 to reps do
      acc := !acc + Prob.Binomial.sample g d
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf
      "sample(trials=%d, p=%g): %.0f ns/draw (mean draw %.1f)\n" trials p
      (dt /. float_of_int reps *. 1e9)
      (float_of_int !acc /. float_of_int reps);
    dt
  in
  let small = time_sampler ~trials:10_000 ~p:0.1 in
  let large = time_sampler ~trials:100_000 ~p:0.01 in
  Printf.printf "sampler cost ratio, 10x trials at equal mean: %.2fx\n"
    (large /. small);
  if large > 5. *. small then
    fail "Binomial.sample cost grows with trials at fixed mean";
  print_endline "execscale smoke OK"

(* `--markovscale-smoke`: on the Delta = 500 suffix chain C_F (alpha
   chosen so abar^Delta ~ e^-4), GTH censoring must out-run the dense LU
   solve 10x, and every solver must sit within 1e-9 of Eq. 37. *)
let markovscale_smoke () =
  section
    "MARKOVSCALE (smoke): GTH censoring must out-run dense LU 10x at \
     Delta = 500, all solvers within 1e-9 of Eq. 37";
  let delta = 500 and alpha = 0.008 in
  let exact = Core.Suffix_chain.stationary_closed_form ~delta ~alpha in
  let chain = Core.Suffix_chain.build ~delta ~alpha in
  let sp = Core.Suffix_chain.build_sparse ~delta ~alpha in
  let solve name f =
    let pi, dt = time_averaged f in
    let err = Nakamoto_numerics.Linalg.max_abs_diff pi exact in
    let rate = float_of_int (Array.length pi) /. Float.max dt 1e-9 in
    Printf.printf "%s: %.0f states/s, max|err| vs Eq. 37 %.3e\n" name rate
      err;
    (rate, err)
  in
  let dense, dense_err =
    solve "dense-lu" (fun () -> Markov.Chain.stationary_linear_solve chain)
  in
  let censor, censor_err =
    solve "gth-censor" (fun () ->
        Option.get (Markov.Sparse.stationary_censor sp))
  in
  let _, power_err =
    solve "power" (fun () -> Markov.Sparse.stationary_power sp)
  in
  let worst = Float.max dense_err (Float.max censor_err power_err) in
  Printf.printf "worst deviation from Eq. 37 across solvers: %.3e\n" worst;
  if not (worst <= 1e-9) then
    fail "a stationary solver drifted off the closed form";
  Printf.printf "gth-censor / dense-lu: %.0fx\n" (censor /. dense);
  if not (censor >= 10. *. dense) then
    fail "sparse censoring below 10x dense LU at Delta = 500";
  print_endline "markovscale smoke OK"

let regen_all () =
  regen_fig1 ();
  regen_fig2 ();
  regen_tab1 ();
  regen_rmk1 ();
  regen_eq37 ();
  regen_eq44 ();
  regen_thm1 ();
  regen_lem ();
  regen_atk ();
  regen_phase ();
  regen_scale ();
  regen_gap ();
  regen_conc ();
  regen_decay ();
  regen_ext ();
  regen_ext2 ();
  regen_conf ();
  regen_cont ();
  regen_abl ();
  print_newline ();
  print_endline
    "All artifacts regenerated. See EXPERIMENTS.md for the paper-vs-measured index."

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--execscale-smoke" ] -> execscale_smoke ()
  | [ "--markovscale-smoke" ] -> markovscale_smoke ()
  | [] | [ "--csv"; _ ] -> regen_all ()
  | _ ->
    prerr_endline
      "usage: main.exe [--csv DIR | --execscale-smoke | --markovscale-smoke]";
    exit 2
