(* nakamoto-consistency: command-line front end for the analysis library.

   Subcommands map one-to-one onto the paper's artifacts: figure1, figure2,
   table1, remark1 regenerate the evaluation; bound/numax query the bounds;
   simulate/montecarlo run the Delta-delay simulator; verify audits the
   Lemma 2-8 implication chain. *)

open Cmdliner
module Core = Nakamoto_core
module Sim = Nakamoto_sim
module Campaign = Nakamoto_campaign
module Serve = Nakamoto_serve
module Surface = Nakamoto_surface

(* NAKAMOTO_TELEMETRY_CLOCK=zero freezes every span at 0s — the hook
   behind the byte-stable golden smoke checks. *)
let telemetry_clock_env () =
  match Sys.getenv_opt "NAKAMOTO_TELEMETRY_CLOCK" with
  | Some "zero" -> Some (fun () -> 0.)
  | _ -> None

(* Shared argument definitions. *)

let nu_arg =
  let doc = "Adversarial fraction of computing power, in (0, 1/2)." in
  Arg.(value & opt float 0.25 & info [ "nu" ] ~docv:"NU" ~doc)

let c_arg ~default =
  let doc = "The ratio c = 1/(p n Delta): expected network delays per block." in
  Arg.(value & opt float default & info [ "c" ] ~docv:"C" ~doc)

let n_arg =
  let doc = "Number of miners (analysis-side, real-valued)." in
  Arg.(value & opt float 1e5 & info [ "n" ] ~docv:"N" ~doc)

let delta_arg =
  let doc = "Maximum adversarial message delay Delta, in rounds." in
  Arg.(value & opt float 1e13 & info [ "delta" ] ~docv:"DELTA" ~doc)

let seed_arg =
  let doc = "PRNG seed (simulations are reproducible given the seed)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let csv_arg =
  let doc = "Also write the table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

(* The canned scenarios of [simulate] and [trace], as (name, scenario)
   pairs.  An enum, so cmdliner rejects any other name with a usage
   error that lists these. *)
let scenario_arg =
  let scenarios =
    List.map
      (fun (name, scenario) -> (name, (name, scenario)))
      [
        ("honest", `Honest);
        ("safe", `Safe);
        ("attack", `Attack);
        ("split", `Split);
        ("selfish", `Selfish);
      ]
  in
  let doc =
    Printf.sprintf "The scenario to run: %s." (Arg.doc_alts_enum scenarios)
  in
  Arg.(value
       & pos 0 (enum scenarios) (List.assoc "honest" scenarios)
       & info [] ~docv:"SCENARIO" ~doc)

let scenario_config (_, scenario) ~seed ~nu =
  match scenario with
  | `Honest -> Sim.Scenarios.honest_baseline ~seed
  | `Safe -> Sim.Scenarios.safe_zone ~seed ~nu
  | `Attack -> Sim.Scenarios.attack_zone ~seed ~nu
  | `Split -> Sim.Scenarios.split_world ~seed
  | `Selfish -> Sim.Scenarios.selfish ~seed ~nu

let verbose_arg =
  let doc = "Enable debug logging of reorgs and adversarial releases." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let emit_table ?csv table =
  print_string (Nakamoto_numerics.Table.render table);
  match csv with
  | None -> ()
  | Some path ->
    Nakamoto_numerics.Table.save_csv table ~path;
    Printf.printf "(csv written to %s)\n" path

(* bound: all thresholds at one nu. *)

let bound_cmd =
  let run nu delta =
    if not (nu > 0. && nu < 0.5) then `Error (false, "--nu must lie in (0, 1/2)")
    else begin
      let neat = Core.Bounds.neat_c_min ~nu in
      Printf.printf "nu = %g (mu = %g), Delta = %g\n" nu (1. -. nu) delta;
      Printf.printf "  neat bound (Thm 2):      c > %.6f\n" neat;
      Printf.printf "  Thm 2 exact (eps2->0):   c >= %.6f\n"
        (Core.Bounds.theorem2_c_min_optimal ~nu ~delta ~eps2:1e-9);
      let c_pss =
        (* closed-form PSS: c >= 2 (1-nu)^2 / (1 - 2 nu) *)
        2. *. (1. -. nu) *. (1. -. nu) /. (1. -. (2. *. nu))
      in
      Printf.printf "  PSS consistency (closed): c > %.6f\n" c_pss;
      let c_attack = 1. /. ((1. /. nu) -. (1. /. (1. -. nu))) in
      Printf.printf "  PSS attack succeeds for: c < %.6f\n" c_attack;
      `Ok ()
    end
  in
  let term = Term.(ret (const run $ nu_arg $ delta_arg)) in
  Cmd.v
    (Cmd.info "bound" ~doc:"Print all consistency thresholds at a given nu.")
    term

(* numax: all curves at one c. *)

let numax_cmd =
  let run c n delta =
    if c <= 0. then `Error (false, "--c must be positive")
    else begin
      let r = Core.Figure1.compute_row ~n ~delta ~c () in
      Printf.printf "c = %g (n = %g, Delta = %g)\n" c n delta;
      Printf.printf "  ours (neat):      nu_max = %.6f\n" r.Core.Figure1.ours_neat;
      Printf.printf "  Theorem 1 exact:  nu_max = %.6f\n" r.Core.Figure1.theorem1_exact;
      Printf.printf "  Theorem 2 exact:  nu_max = %.6f\n" r.Core.Figure1.theorem2_exact;
      Printf.printf "  PSS consistency:  nu_max = %.6f\n" r.Core.Figure1.pss_consistency;
      Printf.printf "  PSS attack above: nu     = %.6f\n" r.Core.Figure1.pss_attack;
      `Ok ()
    end
  in
  let term = Term.(ret (const run $ c_arg ~default:3. $ n_arg $ delta_arg)) in
  Cmd.v (Cmd.info "numax" ~doc:"Print all tolerable-nu curves at a given c.") term

(* figure1 *)

let figure1_cmd =
  let run n delta csv plot =
    let rows = Core.Figure1.series ~n ~delta ~c_grid:(Core.Figure1.default_c_grid ()) () in
    emit_table ?csv (Core.Figure1.to_table rows);
    if plot then print_string (Core.Figure1.to_plot rows);
    Printf.printf "shape invariants hold: %b\n"
      (Core.Figure1.shape_invariants_hold rows)
  in
  let plot_arg =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render the ASCII plot too.")
  in
  let term = Term.(const run $ n_arg $ delta_arg $ csv_arg $ plot_arg) in
  Cmd.v (Cmd.info "figure1" ~doc:"Regenerate the paper's Figure 1 series.") term

(* figure2 *)

let figure2_cmd =
  let run delta alpha dot =
    if dot then print_string (Core.Figure2.dot ~delta ~alpha)
    else begin
      let censuses =
        List.map (fun d -> Core.Figure2.census ~delta:d ~alpha) [ 2; 3; 4; 8; delta ]
      in
      emit_table (Core.Figure2.to_table censuses)
    end
  in
  let delta_small =
    Arg.(value & opt int 5
         & info [ "delta" ] ~docv:"DELTA" ~doc:"Delay bound for the explicit chain.")
  in
  let alpha_arg =
    Arg.(value & opt float 0.2
         & info [ "alpha" ] ~docv:"ALPHA" ~doc:"Per-round honest success probability.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT instead of the census.")
  in
  let term = Term.(const run $ delta_small $ alpha_arg $ dot_arg) in
  Cmd.v
    (Cmd.info "figure2" ~doc:"Audit / render the suffix Markov chain (Figure 2).")
    term

(* table1 *)

let table1_cmd =
  let run nu c n delta csv =
    let p = Core.Params.of_c ~n ~delta ~nu ~c in
    emit_table ?csv (Core.Table1.for_params p);
    Printf.printf "identities hold: %b\n" (Core.Table1.identities_hold p)
  in
  let term =
    Term.(const run $ nu_arg $ c_arg ~default:3. $ n_arg $ delta_arg $ csv_arg)
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table I with computed values.") term

(* remark1 *)

let remark1_cmd =
  let run () =
    let t =
      Nakamoto_numerics.Table.create
        ~title:"Remark 1: (delta1, delta2) regimes at Delta = 1e13"
        ~columns:[ "delta1"; "delta2"; "nu lower"; "1/2 - nu upper"; "inflation - 1" ]
    in
    List.iter
      (fun (r : Core.Theorem2.regime) ->
        Nakamoto_numerics.Table.add_row t
          [
            Nakamoto_numerics.Table.Float r.delta1;
            Nakamoto_numerics.Table.Float r.delta2;
            Nakamoto_numerics.Table.Log10 r.log_nu_lo;
            Nakamoto_numerics.Table.Sci r.half_minus_nu_hi;
            Nakamoto_numerics.Table.Sci (r.inflation -. 1.);
          ])
      (Core.Theorem2.remark1_rows ());
    emit_table t
  in
  Cmd.v
    (Cmd.info "remark1" ~doc:"Print the Remark 1 nu-range / inflation table.")
    Term.(const run $ const ())

(* simulate *)

let simulate_cmd =
  let run ((scenario, _) as named) nu seed verbose =
    setup_logging verbose;
    let cfg = scenario_config named ~seed ~nu in
    let r = Sim.Execution.run cfg in
    let cons = Sim.Metrics.check_consistency r in
    let growth = Sim.Metrics.chain_growth r in
    Printf.printf "scenario %s: n=%d nu=%.3f c=%.4f Delta=%d rounds=%d seed=%Ld\n"
      scenario cfg.Sim.Config.n cfg.nu (Sim.Config.c cfg) cfg.delta cfg.rounds
      cfg.seed;
    Printf.printf "  honest blocks         %d\n" r.honest_blocks;
    Printf.printf "  adversary blocks      %d\n" r.adversary_blocks;
    Printf.printf "  convergence opps      %d\n" r.convergence_opportunities;
    Printf.printf "  max reorg depth       %d\n" r.max_reorg_depth;
    Printf.printf "  consistency(T=%d)     %d violations / %d pairs (worst depth %d)\n"
      cons.truncate cons.violations cons.pairs_checked cons.worst_violation_depth;
    Printf.printf "  max disagreement      %d\n" (Sim.Metrics.max_disagreement r);
    Printf.printf "  chain growth          %.4f blocks/round\n" growth.growth_rate;
    Printf.printf "  chain quality         %.4f honest fraction\n"
      (Sim.Metrics.chain_quality r);
    Printf.printf "  messages              %d (orphans left: %d)\n" r.messages_sent
      r.orphans_remaining
  in
  let term = Term.(const run $ scenario_arg $ nu_arg $ seed_arg $ verbose_arg) in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a full Delta-delay protocol simulation.")
    term

(* montecarlo *)

let montecarlo_cmd =
  let run nu c delta_i rounds seed =
    let n = 50 in
    let honest = n - int_of_float (nu *. float_of_int n) in
    let p = 1. /. (c *. float_of_int n *. float_of_int delta_i) in
    let cfg =
      { Sim.State_process.honest; adversarial = n - honest; p; delta = delta_i }
    in
    let rng = Nakamoto_prob.Rng.create ~seed in
    let r = Sim.State_process.run ~rng cfg ~rounds in
    let params =
      Core.Params.create ~n:(float_of_int n) ~delta:(float_of_int delta_i) ~p
        ~nu:(float_of_int (n - honest) /. float_of_int n)
    in
    let t = float_of_int rounds in
    Printf.printf "state process: %d rounds at c=%.4f nu=%.3f Delta=%d\n" rounds c
      nu delta_i;
    Printf.printf "  C/T  empirical %.6g   theory (Eq. 44) %.6g\n"
      (float_of_int r.convergence_opportunities /. t)
      (Core.Conv_chain.convergence_rate params);
    Printf.printf "  A/T  empirical %.6g   theory (Eq. 27) %.6g\n"
      (float_of_int r.adversary_blocks /. t)
      (Core.Params.adversary_rate params);
    Printf.printf "  H-round rate   %.6g   alpha %.6g\n"
      (float_of_int r.h_rounds /. t)
      (Core.Params.alpha params);
    Printf.printf "  H1-round rate  %.6g   alpha1 %.6g\n"
      (float_of_int r.h1_rounds /. t)
      (Core.Params.alpha1 params)
  in
  let delta_i_arg =
    Arg.(value & opt int 4 & info [ "delta" ] ~docv:"DELTA" ~doc:"Delay bound.")
  in
  let rounds_arg =
    Arg.(value & opt int 1_000_000
         & info [ "rounds" ] ~docv:"ROUNDS" ~doc:"Rounds to simulate.")
  in
  let term =
    Term.(const run $ nu_arg $ c_arg ~default:2.5 $ delta_i_arg $ rounds_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "montecarlo"
       ~doc:"Validate the stationary theory against the raw state process.")
    term

(* assess *)

(* One JSONL batch line: {"nu":..., "c":...} or {"nu":..., "p":...},
   with optional "n" and "delta" falling back to the point-mode
   defaults.  Bad lines become {"ok":false,...} records — the batch
   never aborts; in particular a depth-limited confirmation search
   (Confirmation.Depth_limited) comes back as an ok record with no
   "confirmations" key and "conf_reason":"depth_limited". *)
let batch_params_of_json j =
  let open Campaign.Json in
  let fopt k = Option.map to_float (member_opt j k) in
  let n = Option.value (fopt "n") ~default:1e5 in
  let delta = Option.value (fopt "delta") ~default:1e13 in
  let nu =
    match fopt "nu" with
    | Some v -> v
    | None -> raise (Malformed "missing key nu")
  in
  match (fopt "p", fopt "c") with
  | Some _, Some _ -> raise (Malformed "give p or c, not both")
  | Some p, None -> Core.Params.create ~p ~n ~delta ~nu
  | None, Some c -> Core.Params.of_c ~n ~delta ~nu ~c
  | None, None -> raise (Malformed "missing key p or c")

let batch_record_of_verdict ~line (v : Core.Assessment.verdict) =
  let open Campaign.Json in
  let p = v.Core.Assessment.v_params in
  let opt k = function None -> [] | Some x -> [ (k, x) ] in
  render
    (Obj
       ([
          ("ok", Bool true);
          ("line", Num (string_of_int line));
          ("p", Num (float_str p.Core.Params.p));
          ("n", Num (float_str p.Core.Params.n));
          ("delta", Num (float_str p.Core.Params.delta));
          ("nu", Num (float_str p.Core.Params.nu));
          ("c", Num (float_str (Core.Params.c p)));
          ("zone", Str (Core.Assessment.zone_to_string v.v_zone));
          ("margin", Num (float_str v.v_margin));
          ("margin_lo", Num (float_str v.v_margin_lo));
          ("margin_hi", Num (float_str v.v_margin_hi));
          ("cached", Bool v.v_cached);
        ]
       @ opt "confirmations"
           (Option.map (fun z -> Num (string_of_int z)) v.v_confirmations)
       @ opt "conf_reason" (Option.map (fun r -> Str r) v.v_conf_reason)
       @ opt "fallback" (Option.map (fun r -> Str r) v.v_fallback)))

let batch_error ~line msg =
  let open Campaign.Json in
  render
    (Obj
       [
         ("ok", Bool false);
         ("line", Num (string_of_int line));
         ("error", Str msg);
       ])

let assess_cmd =
  let run nu c n delta surface_path stdin_jsonl =
    let surface =
      match surface_path with
      | None -> Ok None
      | Some path -> Result.map Option.some (Surface.Table.load path)
    in
    match surface with
    | Error e -> `Error (false, e)
    | Ok surface ->
      let assess_one params =
        match surface with
        | Some t -> Surface.Table.assess_cached t params
        | None -> Core.Assessment.verdict_of (Core.Assessment.assess params)
      in
      if stdin_jsonl then begin
        let hits = ref 0 and fallbacks = ref 0 and errors = ref 0 in
        let line = ref 0 in
        (try
           while true do
             let raw = input_line stdin in
             incr line;
             if String.trim raw <> "" then
               let record =
                 match
                   assess_one (batch_params_of_json (Campaign.Json.parse raw))
                 with
                 | v ->
                   if v.Core.Assessment.v_cached then incr hits
                   else incr fallbacks;
                   batch_record_of_verdict ~line:!line v
                 | exception Campaign.Json.Malformed m ->
                   incr errors;
                   batch_error ~line:!line m
                 | exception Invalid_argument m ->
                   incr errors;
                   batch_error ~line:!line m
               in
               print_endline record
           done
         with End_of_file -> ());
        if surface <> None then
          Printf.eprintf "assess: %d cached, %d exact, %d bad lines\n%!" !hits
            !fallbacks !errors;
        `Ok ()
      end
      else
        match Core.Params.of_c ~n ~delta ~nu ~c with
        | exception Invalid_argument m -> `Error (false, m)
        | p ->
          (match surface with
          | Some _ ->
            Format.printf "%a@." Core.Assessment.pp_verdict (assess_one p)
          | None ->
            Format.printf "%a@.%a@." Core.Assessment.pp
              (Core.Assessment.assess p) Core.Assessment.pp_diagnostics
              (Core.Assessment.diagnose p));
          `Ok ()
  in
  let surface_arg =
    Arg.(value & opt (some string) None
         & info [ "surface" ] ~docv:"FILE"
             ~doc:"Answer from a precomputed certified surface (see \
                   $(b,surface build)); queries outside the table or in \
                   inconclusive cells fall back to the exact solver.")
  in
  let stdin_jsonl_arg =
    Arg.(value & flag
         & info [ "stdin-jsonl" ]
             ~doc:"Batch mode: read one JSON object per stdin line \
                   ({\"nu\":..,\"c\":..} or {\"nu\":..,\"p\":..}, optional \
                   \"n\"/\"delta\") and write one JSON verdict per line.  \
                   Bad lines yield {\"ok\":false} records; the batch \
                   continues.")
  in
  let term =
    Term.(
      ret
        (const run $ nu_arg $ c_arg ~default:3. $ n_arg $ delta_arg
        $ surface_arg $ stdin_jsonl_arg))
  in
  Cmd.v
    (Cmd.info "assess"
       ~doc:"Full security assessment of one parameter point (the flagship query).")
    term

(* surface *)

let parse_axis s =
  match String.split_on_char ':' s with
  | [ lo; hi; count; scale ] -> (
    match
      (float_of_string_opt lo, float_of_string_opt hi, int_of_string_opt count)
    with
    | Some lo, Some hi, Some count -> (
      let mk scale =
        match Surface.Grid.axis ~lo ~hi ~count ~scale with
        | axis -> Ok axis
        | exception Invalid_argument m -> Error m
      in
      match scale with
      | "lin" -> mk Surface.Grid.Linear
      | "log" -> mk Surface.Grid.Log
      | other -> Error (Printf.sprintf "%S: scale must be lin or log" other))
    | _ -> Error (Printf.sprintf "%S: expected LO:HI:COUNT:SCALE" s))
  | _ -> Error (Printf.sprintf "%S: expected LO:HI:COUNT:SCALE" s)

let axis_arg ~name ~default ~doc =
  Arg.(value & opt string default & info [ name ] ~docv:"LO:HI:COUNT:SCALE" ~doc)

let surface_build_cmd =
  let run p n delta nu out jobs epsilon conf_limit refine =
    match (parse_axis p, parse_axis n, parse_axis delta, parse_axis nu) with
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
      ->
      `Error (false, e)
    | Ok p, Ok n, Ok delta, Ok nu -> (
      match
        let grid = Surface.Grid.create ~p ~n ~delta ~nu in
        Surface.Table.build ~jobs ~epsilon ~conf_limit ~refine grid
      with
      | exception Invalid_argument m -> `Error (false, m)
      | table ->
        Surface.Table.save table ~path:out;
        Printf.printf "%s\n" (Surface.Table.describe table);
        Printf.printf "(surface written to %s)\n" out;
        `Ok ())
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"PATH" ~doc:"Output surface file.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"J"
             ~doc:"Certify cells on J domains (the bytes are identical \
                   for every J).")
  in
  let epsilon_arg =
    Arg.(value & opt float Surface.Table.default_epsilon
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:"Double-spend risk target for the certified depths, in \
                   [1e-9, 1).")
  in
  let conf_limit_arg =
    Arg.(value & opt int Surface.Table.default_conf_limit
         & info [ "conf-limit" ] ~docv:"Z"
             ~doc:"Give up certifying a cell's depth past Z confirmations.")
  in
  let refine_arg =
    Arg.(value & opt int Surface.Table.default_refine
         & info [ "refine" ] ~docv:"R"
             ~doc:"Split each cell into R^4 sub-boxes for the depth \
                   certification (fights interval dependency blow-up).")
  in
  let term =
    Term.(
      ret
        (const run
        $ axis_arg ~name:"p" ~default:"1.1e-4:1.4e-4:4:log"
            ~doc:"Proof-of-work hardness axis."
        $ axis_arg ~name:"n" ~default:"100:140:4:log" ~doc:"Miner-count axis."
        $ axis_arg ~name:"delta" ~default:"28:36:4:log"
            ~doc:"Delay-bound axis."
        $ axis_arg ~name:"nu" ~default:"0.012:0.016:4:lin"
            ~doc:"Adversarial-fraction axis."
        $ out_arg $ jobs_arg $ epsilon_arg $ conf_limit_arg $ refine_arg))
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Precompute an interval-certified assessment surface over a \
          (p, n, Delta, nu) box.")
    term

let surface_info_cmd =
  let run path header =
    match Surface.Table.load path with
    | Error e -> `Error (false, e)
    | Ok t ->
      if header then print_endline (Surface.Table.header_json t)
      else begin
        print_endline (Surface.Table.describe t);
        let zones, confs, full = Surface.Table.conclusive_counts t in
        Printf.printf
          "zones certified %d, depths certified %d, fully conclusive %d\n"
          zones confs full
      end;
      `Ok ()
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Surface file to inspect.")
  in
  let header_arg =
    Arg.(value & flag
         & info [ "header" ] ~doc:"Print the canonical JSON header only.")
  in
  let term = Term.(ret (const run $ path_arg $ header_arg)) in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a surface file (or dump its header).")
    term

let surface_cmd =
  Cmd.group
    (Cmd.info "surface"
       ~doc:
         "Build and inspect precomputed interval-certified assessment \
          surfaces.")
    [ surface_build_cmd; surface_info_cmd ]

(* sweep *)

let sweep_cmd =
  let run lo hi points n delta csv =
    if not (lo > 0. && hi > lo) then
      `Error (false, "--lo and --hi must satisfy 0 < lo < hi")
    else if points < 2 then `Error (false, "--points must be >= 2")
    else begin
      let grid =
        List.init points (fun i ->
            let t = float_of_int i /. float_of_int (points - 1) in
            lo *. ((hi /. lo) ** t))
      in
      let rows = Core.Figure1.series ~n ~delta ~c_grid:grid () in
      emit_table ?csv (Core.Figure1.to_table rows);
      `Ok ()
    end
  in
  let lo_arg =
    Arg.(value & opt float 0.5 & info [ "lo" ] ~docv:"LO" ~doc:"Smallest c.")
  in
  let hi_arg =
    Arg.(value & opt float 50. & info [ "hi" ] ~docv:"HI" ~doc:"Largest c.")
  in
  let points_arg =
    Arg.(value & opt int 21 & info [ "points" ] ~docv:"N" ~doc:"Grid size (log-spaced).")
  in
  let term =
    Term.(ret (const run $ lo_arg $ hi_arg $ points_arg $ n_arg $ delta_arg $ csv_arg))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Tabulate every tolerable-nu curve over a custom log-spaced c grid.")
    term

(* trace *)

let trace_cmd =
  let run scenario nu seed out =
    let trace = Sim.Trace.capture (scenario_config scenario ~seed ~nu) in
    (match out with
    | None -> print_string (Sim.Trace.to_string trace)
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Sim.Trace.to_string trace));
      Printf.printf "trace written to %s\n" path);
    print_endline (Sim.Trace.summarize trace)
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH" ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let term = Term.(const run $ scenario_arg $ nu_arg $ seed_arg $ out_arg) in
  Cmd.v
    (Cmd.info "trace" ~doc:"Capture a round-by-round execution trace.")
    term

(* confirm *)

let confirm_cmd =
  let run nu c delta epsilon =
    let p = Core.Params.of_c ~n:1e5 ~delta ~nu ~c in
    match Core.Confirmation.assess ~epsilon p with
    | exception Invalid_argument msg -> `Error (false, msg)
    | a ->
      Printf.printf "settlement at nu=%g, c=%g, Delta=%g, target risk %g:\n" nu c
        delta epsilon;
      Printf.printf "  honest effective rate (Eq. 44)  %.6g per round\n"
        a.Core.Confirmation.honest_rate;
      Printf.printf "  adversary rate (Eq. 27)         %.6g per round\n"
        a.Core.Confirmation.adversary_rate;
      Printf.printf "  rate ratio                      %.4f\n"
        a.Core.Confirmation.rate_ratio;
      Printf.printf "  confirmations needed            %d\n"
        a.Core.Confirmation.confirmations;
      Printf.printf "  residual double-spend risk      %.3e\n"
        a.Core.Confirmation.residual_risk;
      `Ok ()
  in
  let epsilon_arg =
    Arg.(value & opt float 1e-3
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:"Acceptable double-spend probability, in [1e-9, 1).")
  in
  let delta_small =
    Arg.(value & opt float 10.
         & info [ "delta" ] ~docv:"DELTA" ~doc:"Delay bound (rounds).")
  in
  let term =
    Term.(ret (const run $ nu_arg $ c_arg ~default:6. $ delta_small $ epsilon_arg))
  in
  Cmd.v
    (Cmd.info "confirm"
       ~doc:"Compute a safe confirmation depth from the paper's rates.")
    term

(* campaign *)

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%S: expected HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    if host = "" then Error (Printf.sprintf "%S: empty host" s)
    else
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
      | _ -> Error (Printf.sprintf "%S: bad port %S" s port))

(* The same pair of flags on campaign and worker: dial a Unix socket or
   a TCP endpoint, exactly one of the two (or neither, where in-process
   compute is an option). *)
let resolve_addr ~what ~sock ~tcp =
  match (sock, tcp) with
  | None, None ->
    Error
      (Printf.sprintf "%s needs --connect SOCK or --connect-tcp HOST:PORT"
         what)
  | Some _, Some _ -> Error "--connect and --connect-tcp are mutually exclusive"
  | Some s, None -> Ok (Serve.Conn.Unix_path s)
  | None, Some hp ->
    Result.map (fun (h, p) -> Serve.Conn.Tcp (h, p)) (parse_hostport hp)

let campaign_cmd =
  let run ps ns deltas nus trials rounds mode strategy mining jobs seed resume
      out shard_size progress_interval retries fault telemetry connect
      connect_tcp =
    let strategy =
      match strategy with
      | "idle" -> Ok Sim.Adversary.Idle
      | "private" -> Ok (Sim.Adversary.Private_chain { reorg_target = 12 })
      | "balance" -> Ok (Sim.Adversary.Balance { group_boundary = 15 })
      | "selfish" -> Ok Sim.Adversary.Selfish_mining
      | other -> Error (Printf.sprintf "unknown strategy %S" other)
    in
    let mode =
      match mode with
      | "full" -> Ok Campaign.Spec.Full_protocol
      | "state" -> Ok Campaign.Spec.State_process
      | other -> Error (Printf.sprintf "unknown mode %S" other)
    in
    let mining =
      match mining with
      | "exact" -> Ok Sim.Config.Exact
      | "aggregate" -> Ok Sim.Config.Aggregate
      | "skip" -> Ok Sim.Config.Skip
      | other -> Error (Printf.sprintf "unknown mining mode %S" other)
    in
    let fault =
      match fault with
      | None -> Ok None
      | Some s -> (
        match Campaign.Faultplan.of_string s with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error e)
    in
    match (strategy, mode, mining, fault) with
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
      ->
      `Error (false, e)
    | Ok strategy, Ok mode, Ok mining_mode, Ok fault -> (
      let spec =
        {
          Campaign.Spec.ps;
          ns;
          deltas;
          nus;
          trials_per_cell = trials;
          rounds;
          mode;
          strategy;
          mining_mode;
          truncate = Campaign.Spec.default.Campaign.Spec.truncate;
          seed;
          shard_size;
        }
      in
      match (connect, connect_tcp) with
      | (Some _, _ | _, Some _) -> (
        (* Daemon mode: the coordinator and its workers do the computing
           and the journaling; this process submits and watches. *)
        match resolve_addr ~what:"campaign" ~sock:connect ~tcp:connect_tcp with
        | Error e -> `Error (false, e)
        | Ok addr -> (
          if fault <> None then
            `Error
              (false, "--fault applies to compute processes; arm it on the \
                       worker subcommand instead")
          else if telemetry <> None then
            `Error
              (false, "--telemetry is configured on the serve daemon, not \
                       per submission")
          else
            let on_progress (p : Nakamoto_wire.Message.progress) =
              if progress_interval > 0. then
                Printf.eprintf
                  "campaign: %d/%d trials, %d/%d cells (daemon)\n%!"
                  p.Nakamoto_wire.Message.p_trials_done p.p_trials_total
                  p.p_cells_done p.p_cells_total
            in
            match
              Serve.Client.submit ~addr ?journal:out ~resume ~on_progress spec
            with
            | Ok (table, journal) ->
              print_string table;
              (match journal with
              | Some path -> Printf.printf "(journal: %s, daemon-side)\n" path
              | None -> ());
              `Ok ()
            | Error e -> `Error (false, e)
            | exception Unix.Unix_error (err, _, _) ->
              `Error
                ( false,
                  Printf.sprintf "cannot reach the daemon at %s: %s"
                    (Serve.Conn.addr_to_string addr)
                    (Unix.error_message err) )))
      | None, None -> (
      let jobs = if jobs = 0 then None else Some jobs in
      let telemetry_clock = telemetry_clock_env () in
      match
        Campaign.Campaign.run ?jobs ?journal_path:out ~resume ~retries ?fault
          ~progress_interval ?telemetry ?telemetry_clock spec
      with
      | exception Invalid_argument msg -> `Error (false, msg)
      | exception Failure msg -> `Error (false, msg)
      | exception Campaign.Faultplan.Injected_crash msg ->
        (* EX_SOFTWARE: the injected crash fired as planned; the journal
           holds every line fsynced before the crash point. *)
        Printf.eprintf "campaign: injected crash: %s\n%!" msg;
        exit 70
      | outcome ->
        print_string
          (Nakamoto_numerics.Table.render
             (Campaign.Campaign.summary_table outcome));
        (match out with
        | Some path -> Printf.printf "(journal: %s)\n" path
        | None -> ());
        (match telemetry with
        | Some dir -> Printf.printf "(telemetry: %s)\n" dir
        | None -> ());
        `Ok ()))
  in
  let list_of names cv ~default ~doc =
    Arg.(value & opt (list cv) default & info names ~docv:"LIST" ~doc)
  in
  let ps_arg =
    list_of [ "p"; "ps" ] Arg.float ~default:[ 0.005 ]
      ~doc:"Comma-separated per-query success probabilities."
  in
  let ns_arg =
    list_of [ "n"; "miners" ] Arg.int ~default:[ 40 ]
      ~doc:"Comma-separated miner counts."
  in
  let deltas_arg =
    list_of [ "delta" ] Arg.int ~default:[ 4 ]
      ~doc:"Comma-separated delay bounds (rounds)."
  in
  let nus_arg =
    list_of [ "nu" ] Arg.float ~default:[ 0.1; 0.25; 0.4 ]
      ~doc:"Comma-separated adversarial fractions."
  in
  let trials_arg =
    Arg.(value & opt int 8
         & info [ "trials" ] ~docv:"K" ~doc:"Independent trials per grid cell.")
  in
  let rounds_arg =
    Arg.(value & opt int 1500
         & info [ "rounds" ] ~docv:"R" ~doc:"Rounds simulated per trial.")
  in
  let mode_arg =
    Arg.(value & opt string "full"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"full (protocol + consistency audit) | state (fast \
                   binomial state process).")
  in
  let strategy_arg =
    Arg.(value & opt string "private"
         & info [ "strategy" ] ~docv:"S"
             ~doc:"Adversary for full mode: idle | private | balance | selfish.")
  in
  let mining_arg =
    Arg.(value & opt string "exact"
         & info [ "mining" ] ~docv:"M"
             ~doc:"Executor for full mode: exact (per-miner queries) | \
                   aggregate (binomial counts + shared delivery lane) | \
                   skip (aggregate that fast-forwards empty rounds; \
                   O(events)).  aggregate and skip exclude the balance \
                   strategy.")
  in
  let jobs_arg =
    Arg.(value & opt int 0
         & info [ "jobs" ] ~docv:"J"
             ~doc:"Worker domains; 0 = recommended_domain_count - 1.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Skip cells already present in the journal at --out.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH" ~doc:"JSONL journal path.")
  in
  let shard_arg =
    Arg.(value & opt int 2
         & info [ "shard-size" ] ~docv:"T" ~doc:"Trials per work-queue shard.")
  in
  let progress_arg =
    Arg.(value & opt float 5.
         & info [ "progress-interval" ] ~docv:"SEC"
             ~doc:"Seconds between progress reports on stderr; 0 disables.")
  in
  let retries_arg =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"K"
             ~doc:"Requeue a failing shard up to K times before giving up.")
  in
  let fault_arg =
    Arg.(value & opt (some string) None
         & info [ "fault" ] ~docv:"PLAN"
             ~doc:"Arm a fault-injection plan (testing): \
                   crash-after-appends=N | torn-write=N | \
                   raising-worker=TASK[:FAILURES] | \
                   slow-worker=TASK[:SECONDS].  An injected crash exits \
                   with status 70.")
  in
  let telemetry_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"DIR"
             ~doc:"Write telemetry.prom and telemetry.jsonl (per-domain \
                   shard timings, executor phase spans, journal fsync \
                   latency) into DIR when the campaign completes.")
  in
  let connect_arg =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCK"
             ~doc:"Submit to a serve daemon at this Unix-domain socket \
                   instead of computing in-process.  --out then names a \
                   daemon-side journal path.")
  in
  let connect_tcp_arg =
    Arg.(value & opt (some string) None
         & info [ "connect-tcp" ] ~docv:"HOST:PORT"
             ~doc:"Submit to a serve daemon over TCP instead of a Unix \
                   socket.")
  in
  let term =
    Term.(
      ret
        (const run $ ps_arg $ ns_arg $ deltas_arg $ nus_arg $ trials_arg
        $ rounds_arg $ mode_arg $ strategy_arg $ mining_arg $ jobs_arg
        $ seed_arg $ resume_arg $ out_arg $ shard_arg $ progress_arg
        $ retries_arg $ fault_arg $ telemetry_arg $ connect_arg
        $ connect_tcp_arg))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a parallel Monte Carlo campaign over a (p, n, Delta, nu) grid \
          and compare observed violation rates with the analytic regions.")
    term

(* serve *)

let serve_cmd =
  let run socket listen max_campaigns max_conns lease_timeout telemetry
      surface_path verbose =
    setup_logging verbose;
    let max_campaigns = if max_campaigns = 0 then None else Some max_campaigns in
    let telemetry_clock = telemetry_clock_env () in
    let tcp =
      match listen with
      | None -> Ok None
      | Some hp -> Result.map Option.some (parse_hostport hp)
    in
    let surface =
      match surface_path with
      | None -> Ok None
      | Some path -> Result.map Option.some (Surface.Table.load path)
    in
    match (tcp, surface) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok _, _ when socket = None && listen = None ->
      `Error (false, "serve needs --socket SOCK, --listen HOST:PORT, or both")
    | Ok tcp, Ok surface -> (
      let on_tcp_port p = Printf.eprintf "serve: tcp port %d\n%!" p in
      match
        Serve.Coordinator.serve ?socket ?tcp ?max_campaigns ~max_conns
          ~lease_timeout ?telemetry ?telemetry_clock ?surface ~on_tcp_port ()
      with
      | served ->
        Printf.printf "served %d campaign%s\n" served
          (if served = 1 then "" else "s");
        `Ok ()
      | exception Invalid_argument m -> `Error (false, m)
      | exception Failure m -> `Error (false, m)
      | exception Unix.Unix_error (err, fn, arg) ->
        `Error
          ( false,
            Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err) ))
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"SOCK"
             ~doc:"Unix-domain socket path to listen on (stale files are \
                   unlinked).")
  in
  let listen_arg =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT"
             ~doc:"Also (or instead) listen on TCP.  PORT 0 lets the \
                   kernel pick; the bound port is printed on stderr.")
  in
  let max_campaigns_arg =
    Arg.(value & opt int 0
         & info [ "max-campaigns" ] ~docv:"N"
             ~doc:"Exit cleanly after N campaigns complete; 0 = serve \
                   forever.")
  in
  let max_conns_arg =
    Arg.(value & opt int 240
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Shed new connections past N simultaneous peers.")
  in
  let lease_timeout_arg =
    Arg.(value & opt float 30.
         & info [ "lease-timeout" ] ~docv:"SEC"
             ~doc:"Reassign a granted shard whose worker has not answered \
                   within SEC seconds.  Heartbeat probes run at SEC/6 and \
                   drop a silent lease holder after SEC/2.")
  in
  let telemetry_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"DIR"
             ~doc:"Write telemetry.prom and telemetry.jsonl (lease and \
                   frame counters, fold spans, shed / heartbeat-drop / \
                   late-result counters, the workers' shard instruments) \
                   into DIR at each campaign completion.  Workers record \
                   and ship shard instruments only to a daemon started \
                   with this option; the handshake tells them.")
  in
  let surface_arg =
    Arg.(value & opt (some string) None
         & info [ "surface" ] ~docv:"FILE"
             ~doc:"Answer assess queries from this precomputed certified \
                   surface, falling back to the exact solver outside its \
                   conclusive cells.")
  in
  let term =
    Term.(
      ret
        (const run $ socket_arg $ listen_arg $ max_campaigns_arg
        $ max_conns_arg $ lease_timeout_arg $ telemetry_arg $ surface_arg
        $ verbose_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: accept specs over a Unix-domain socket \
          and/or TCP, lease cells to worker processes, fold results and \
          journal them.")
    term

(* worker *)

let worker_cmd =
  let run sock tcp lease_batch fault connect_timeout verbose =
    setup_logging verbose;
    let fault =
      match fault with
      | None -> Ok None
      | Some s -> (
        match Campaign.Faultplan.of_string s with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error e)
    in
    match (resolve_addr ~what:"worker" ~sock ~tcp, fault) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok addr, Ok fault -> (
      let telemetry_clock = telemetry_clock_env () in
      match
        Serve.Worker.run ~addr ~connect_timeout ~lease_batch ?fault
          ?telemetry_clock ()
      with
      | shards ->
        Printf.printf "worker done: %d shard%s computed\n" shards
          (if shards = 1 then "" else "s");
        `Ok ()
      | exception Campaign.Faultplan.Injected_crash msg ->
        Printf.eprintf "worker: injected crash: %s\n%!" msg;
        exit 70
      | exception Invalid_argument msg -> `Error (false, msg)
      | exception Failure msg -> `Error (false, msg)
      | exception Unix.Unix_error (err, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot reach the daemon at %s: %s"
              (Serve.Conn.addr_to_string addr)
              (Unix.error_message err) ))
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCK"
             ~doc:"The serve daemon's Unix-domain socket.")
  in
  let tcp_arg =
    Arg.(value & opt (some string) None
         & info [ "connect-tcp" ] ~docv:"HOST:PORT"
             ~doc:"Dial the daemon over TCP instead of a Unix socket.")
  in
  let lease_batch_arg =
    Arg.(value & opt int 1
         & info [ "lease-batch" ] ~docv:"K"
             ~doc:"Ask for up to K leases per request (amortizes round \
                   trips at high shard counts).")
  in
  let fault_arg =
    Arg.(value & opt (some string) None
         & info [ "fault" ] ~docv:"PLAN"
             ~doc:"Arm a fault-injection plan (testing): \
                   raising-worker=TASK[:FAILURES] kills this worker when \
                   it leases shard TASK — the coordinator reassigns the \
                   lease.")
  in
  let connect_timeout_arg =
    Arg.(value & opt float 10.
         & info [ "connect-timeout" ] ~docv:"SEC"
             ~doc:"Keep retrying the connection for SEC seconds (covers \
                   starting the worker before the daemon).")
  in
  let term =
    Term.(
      ret (const run $ socket_arg $ tcp_arg $ lease_batch_arg $ fault_arg
           $ connect_timeout_arg $ verbose_arg))
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a compute worker: lease shards from a serve daemon, execute \
          them, return aggregates.  Start as many as you want cores used.")
    term

(* verify *)

let verify_cmd =
  let run nu c n delta eps1 eps2 =
    let p = Core.Params.of_c ~n ~delta ~nu ~c in
    let r = Core.Lemmas.verify_chain ~eps1 ~eps2 p in
    Printf.printf "implication chain at %s, eps1=%g eps2=%g:\n"
      (Format.asprintf "%a" Core.Params.pp p)
      eps1 eps2;
    Printf.printf "  delta4 = %.6g, delta1 = %.6g\n" r.delta4 r.delta1;
    List.iter
      (fun (s : Core.Lemmas.chain_step) ->
        Printf.printf "  [%s] %-42s %s\n"
          (if s.holds then "ok" else "FAIL")
          s.name s.detail)
      r.steps;
    Printf.printf "all steps hold: %b\n" r.all_hold
  in
  let eps1_arg =
    Arg.(value & opt float 0.5 & info [ "eps1" ] ~docv:"EPS1" ~doc:"Constant eps1 in (0,1).")
  in
  let eps2_arg =
    Arg.(value & opt float 0.1 & info [ "eps2" ] ~docv:"EPS2" ~doc:"Constant eps2 > 0.")
  in
  let term =
    Term.(const run $ nu_arg $ c_arg ~default:4. $ n_arg $ delta_arg $ eps1_arg $ eps2_arg)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Audit the Lemma 2-8 implication chain numerically.")
    term

let () =
  let doc =
    "Consistency analysis of Nakamoto's blockchain protocol in asynchronous \
     networks (reproduction of Zhao, ICDCS 2020)"
  in
  let info = Cmd.info "nakamoto-consistency" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        bound_cmd; numax_cmd; figure1_cmd; figure2_cmd; table1_cmd; remark1_cmd;
        simulate_cmd; montecarlo_cmd; campaign_cmd; verify_cmd; confirm_cmd;
        trace_cmd; sweep_cmd; assess_cmd; surface_cmd; serve_cmd; worker_cmd;
      ]
  in
  exit (Cmd.eval group)
