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

(* NAKAMOTO_TELEMETRY_CLOCK=zero freezes every span at 0s — the hook
   behind the byte-stable golden smoke checks. *)
let telemetry_clock_env () =
  match Sys.getenv_opt "NAKAMOTO_TELEMETRY_CLOCK" with
  | Some "zero" -> Some (fun () -> 0.)
  | _ -> None

(* The paper's vocabulary.  Each of (p, n, Delta, nu, c) is one flag,
   declared here once; a subcommand picks its default or pins the value.
   No value reaches the library unchecked: [point] checks (n, Delta, nu,
   c) together through Params, the other values have range-checked
   converters, and [guarded] makes what only the library can check a
   usage error too.  A rejection exits 124 with nothing on stdout. *)

let nu_arg =
  let doc = "Adversarial fraction of computing power, in (0, 1/2)." in
  Arg.(value & opt float 0.25 & info [ "nu" ] ~docv:"NU" ~doc)

let c_arg ~default =
  let doc = "The ratio c = 1/(p n Delta): expected network delays per block." in
  Arg.(value & opt float default & info [ "c" ] ~docv:"C" ~doc)

let n_arg =
  let doc = "Number of miners (analysis-side, real-valued)." in
  Arg.(value & opt float 1e5 & info [ "n" ] ~docv:"N" ~doc)

let delta_arg cv default =
  let doc = "Maximum adversarial message delay Delta, in rounds." in
  Arg.(value & opt cv default & info [ "delta" ] ~docv:"DELTA" ~doc)

(* The point (n, Delta, nu, c), checked by Params.make_of_c, with the c
   it was given by: the library takes c as given, not recomputed as
   1/(p n Delta).  A subcommand without a -n flag pins n = 1e5. *)
let point_result ?(n = Term.const 1e5) ?(delta = delta_arg Arg.float 1e13)
    ?(nu = nu_arg) c =
  let make n delta nu c =
    Result.map (fun p -> (p, c)) (Core.Params.make_of_c ~n ~delta ~nu ~c)
  in
  Term.(const make $ n $ delta $ nu $ c)

let point ?n ?delta ?nu c = Term.term_result' (point_result ?n ?delta ?nu c)

(* figure1 and sweep invert over nu at every c of a grid, so each
   (n, Delta, c) of it must be a point of the domain. *)
let check_grid ~n ~delta grid =
  List.fold_left
    (fun ok c ->
      Result.bind ok (fun () ->
          Result.map ignore (Core.Params.make_of_c ~n ~delta ~nu:0. ~c)))
    (Ok ()) grid

(* [within conv range ok] parses like [conv] and accepts exactly the
   values [ok] holds for: the range the library function takes. *)
let within conv range ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s range))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = within Arg.int "an integer >= 1" (fun k -> k >= 1)
let positive = within Arg.float "a number > 0" (fun x -> x > 0.)
let unit_open = within Arg.float "a number in (0, 1)" (fun x -> x > 0. && x < 1.)

(* Run [f] before anything is printed, then [k] on its value.  Part of
   the domain is a relation only the library states — nu > 0 for a
   theorem, Ineq. 73 for the lemma chain, the consistency region for a
   confirmation depth, a scenario's implied p — so its Invalid_argument
   (or Failure, or an unusable path) is a usage error.  A compute
   process's injected crash exits 70 (EX_SOFTWARE), as planned, and a
   failed dial of [addr] names the daemon. *)
let guarded ?(who = "nakamoto-consistency") ?addr f k =
  match f () with
  | v -> k v
  | exception (Invalid_argument m | Failure m | Sys_error m) -> `Error (false, m)
  | exception Campaign.Faultplan.Injected_crash m ->
    Printf.eprintf "%s: injected crash: %s\n%!" who m;
    exit 70
  | exception Unix.Unix_error (err, fn, arg) ->
    let why = Unix.error_message err in
    `Error
      ( false,
        match addr with
        | Some a ->
          Printf.sprintf "cannot reach the daemon at %s: %s"
            (Serve.Conn.addr_to_string a) why
        | None -> Printf.sprintf "%s %s: %s" fn arg why )

let seed_arg =
  let doc = "PRNG seed (simulations are reproducible given the seed)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let csv_arg =
  let doc = "Also write the table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

(* The canned scenarios of [simulate] and [trace], as (name, config
   builder) pairs.  An enum, so cmdliner rejects any other name with a
   usage error that lists these.  honest and split ignore --nu. *)
let scenario_arg =
  let scenarios =
    List.map
      (fun (name, make) -> (name, (name, make)))
      [
        ("honest", fun ~seed ~nu:_ -> Sim.Scenarios.honest_baseline ~seed);
        ("safe", Sim.Scenarios.safe_zone);
        ("attack", Sim.Scenarios.attack_zone);
        ("split", fun ~seed ~nu:_ -> Sim.Scenarios.split_world ~seed);
        ("selfish", Sim.Scenarios.selfish);
      ]
  in
  let doc =
    Printf.sprintf "The scenario to run: %s." (Arg.doc_alts_enum scenarios)
  in
  Arg.(value
       & pos 0 (enum scenarios) (List.assoc "honest" scenarios)
       & info [] ~docv:"SCENARIO" ~doc)

let verbose_arg =
  let doc = "Enable debug logging of reorgs and adversarial releases." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let print_table table = print_string (Nakamoto_numerics.Table.render table)

(* Print [table], write it as CSV to [csv] if given, then run [k].  The
   CSV file is opened before anything is printed, so a path that cannot
   be written is a usage error with empty stdout. *)
let emit_table ?csv table k =
  guarded (fun () -> Option.map (fun path -> (path, open_out path)) csv)
  @@ fun out ->
  print_table table;
  Option.iter
    (fun (path, oc) ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Nakamoto_numerics.Table.to_csv table));
      Printf.printf "(csv written to %s)\n" path)
    out;
  k ()

(* bound: all thresholds at one nu.  Delta = inf is the neat bound's
   limit, so Delta is a range-checked scalar here, not a Params point. *)

let bound_cmd =
  let run nu delta =
    guarded
      (fun () ->
        ( Core.Bounds.neat_c_min ~nu,
          Core.Bounds.theorem2_c_min_optimal ~nu ~delta ~eps2:1e-9 ))
    @@ fun (neat, thm2) ->
    Printf.printf "nu = %g (mu = %g), Delta = %g\n" nu (1. -. nu) delta;
    Printf.printf "  neat bound (Thm 2):      c > %.6f\n" neat;
    Printf.printf "  Thm 2 exact (eps2->0):   c >= %.6f\n" thm2;
    let c_pss =
      (* closed-form PSS: c >= 2 (1-nu)^2 / (1 - 2 nu) *)
      2. *. (1. -. nu) *. (1. -. nu) /. (1. -. (2. *. nu))
    in
    Printf.printf "  PSS consistency (closed): c > %.6f\n" c_pss;
    let c_attack = 1. /. ((1. /. nu) -. (1. /. (1. -. nu))) in
    Printf.printf "  PSS attack succeeds for: c < %.6f\n" c_attack;
    `Ok ()
  in
  let delta = delta_arg (within Arg.float "a number >= 1" (fun d -> d >= 1.)) 1e13 in
  let term = Term.(ret (const run $ nu_arg $ delta)) in
  Cmd.v
    (Cmd.info "bound" ~doc:"Print all consistency thresholds at a given nu.")
    term

(* numax: all curves at one c.  It inverts over nu, so any nu checks
   (n, Delta, c). *)

let numax_cmd =
  let run ((p : Core.Params.t), c) =
    let r = Core.Figure1.compute_row ~n:p.n ~delta:p.delta ~c () in
    Printf.printf "c = %g (n = %g, Delta = %g)\n" c p.n p.delta;
    Printf.printf "  ours (neat):      nu_max = %.6f\n" r.Core.Figure1.ours_neat;
    Printf.printf "  Theorem 1 exact:  nu_max = %.6f\n" r.Core.Figure1.theorem1_exact;
    Printf.printf "  Theorem 2 exact:  nu_max = %.6f\n" r.Core.Figure1.theorem2_exact;
    Printf.printf "  PSS consistency:  nu_max = %.6f\n" r.Core.Figure1.pss_consistency;
    Printf.printf "  PSS attack above: nu     = %.6f\n" r.Core.Figure1.pss_attack
  in
  let term =
    Term.(const run $ point ~n:n_arg ~nu:(const 0.25) (c_arg ~default:3.))
  in
  Cmd.v (Cmd.info "numax" ~doc:"Print all tolerable-nu curves at a given c.") term

(* figure1 *)

let figure1_cmd =
  let run n delta csv plot =
    let c_grid = Core.Figure1.default_c_grid () in
    match check_grid ~n ~delta c_grid with
    | Error e -> `Error (false, e)
    | Ok () ->
      let rows = Core.Figure1.series ~n ~delta ~c_grid () in
      emit_table ?csv (Core.Figure1.to_table rows) @@ fun () ->
      if plot then print_string (Core.Figure1.to_plot rows);
      Printf.printf "shape invariants hold: %b\n"
        (Core.Figure1.shape_invariants_hold rows);
      `Ok ()
  in
  let plot_arg =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render the ASCII plot too.")
  in
  let term =
    Term.(ret (const run $ n_arg $ delta_arg Arg.float 1e13 $ csv_arg $ plot_arg))
  in
  Cmd.v (Cmd.info "figure1" ~doc:"Regenerate the paper's Figure 1 series.") term

(* figure2 *)

let figure2_cmd =
  let run delta alpha dot =
    if dot then print_string (Core.Figure2.dot ~delta ~alpha)
    else begin
      let censuses =
        List.map (fun d -> Core.Figure2.census ~delta:d ~alpha) [ 2; 3; 4; 8; delta ]
      in
      print_table (Core.Figure2.to_table censuses)
    end
  in
  let alpha_arg =
    Arg.(value & opt unit_open 0.2
         & info [ "alpha" ] ~docv:"ALPHA" ~doc:"Per-round honest success probability.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT instead of the census.")
  in
  let term = Term.(const run $ delta_arg positive_int 5 $ alpha_arg $ dot_arg) in
  Cmd.v
    (Cmd.info "figure2" ~doc:"Audit / render the suffix Markov chain (Figure 2).")
    term

(* table1 *)

let table1_cmd =
  let run (p, _) csv =
    emit_table ?csv (Core.Table1.for_params p) @@ fun () ->
    Printf.printf "identities hold: %b\n" (Core.Table1.identities_hold p);
    `Ok ()
  in
  let term =
    Term.(ret (const run $ point ~n:n_arg (c_arg ~default:3.) $ csv_arg))
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table I with computed values.") term

(* remark1 *)

let remark1_cmd =
  let run () =
    print_table
      (Core.Theorem2.remark1_table
         ~title:"Remark 1: (delta1, delta2) regimes at Delta = 1e13")
  in
  Cmd.v
    (Cmd.info "remark1" ~doc:"Print the Remark 1 nu-range / inflation table.")
    Term.(const run $ const ())

(* simulate *)

let simulate_cmd =
  let run (scenario, make) nu seed verbose =
    setup_logging verbose;
    guarded (fun () -> make ~seed ~nu) @@ fun cfg ->
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
      r.orphans_remaining;
    `Ok ()
  in
  let term =
    Term.(ret (const run $ scenario_arg $ nu_arg $ seed_arg $ verbose_arg))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a full Delta-delay protocol simulation.")
    term

(* montecarlo: the state process at n = 50. *)

let montecarlo_cmd =
  let n = 50 in
  let run ((point : Core.Params.t), c) rounds seed =
    let honest = n - int_of_float (point.nu *. float_of_int n) in
    let delta_i = int_of_float point.delta in
    let cfg =
      {
        Sim.State_process.honest;
        adversarial = n - honest;
        p = point.p;
        delta = delta_i;
      }
    in
    let rng = Nakamoto_prob.Rng.create ~seed in
    let r = Sim.State_process.run ~rng cfg ~rounds in
    let params =
      Core.Params.create ~n:(float_of_int n) ~delta:point.delta ~p:point.p
        ~nu:(float_of_int (n - honest) /. float_of_int n)
    in
    let t = float_of_int rounds in
    Printf.printf "state process: %d rounds at c=%.4f nu=%.3f Delta=%d\n" rounds c
      point.nu delta_i;
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
  let rounds_arg =
    Arg.(value & opt positive_int 1_000_000
         & info [ "rounds" ] ~docv:"ROUNDS" ~doc:"Rounds to simulate.")
  in
  let point =
    point ~n:(Term.const (float_of_int n))
      ~delta:(Term.map float_of_int (delta_arg Arg.int 4))
      (c_arg ~default:2.5)
  in
  let term = Term.(const run $ point $ rounds_arg $ seed_arg) in
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

(* The point flags are checked in point mode only: a batch ignores them. *)
let assess_cmd =
  let run point stdin_jsonl =
    if stdin_jsonl then begin
      let line = ref 0 in
      (try
         while true do
           let raw = input_line stdin in
           incr line;
           if String.trim raw <> "" then
             let record =
               match
                 Core.Assessment.verdict_of
                   (Core.Assessment.assess
                      (batch_params_of_json (Campaign.Json.parse raw)))
               with
               | v -> batch_record_of_verdict ~line:!line v
               | exception (Campaign.Json.Malformed m | Invalid_argument m) ->
                 batch_error ~line:!line m
             in
             print_endline record
         done
       with End_of_file -> ());
      `Ok ()
    end
    else
      match point with
      | Error m -> `Error (false, m)
      | Ok (p, _) ->
        guarded
          (fun () -> (Core.Assessment.assess p, Core.Assessment.diagnose p))
          (fun (a, d) ->
            Format.printf "%a@.%a@." Core.Assessment.pp a
              Core.Assessment.pp_diagnostics d;
            `Ok ())
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
        (const run $ point_result ~n:n_arg (c_arg ~default:3.) $ stdin_jsonl_arg))
  in
  Cmd.v
    (Cmd.info "assess"
       ~doc:"Full security assessment of one parameter point (the flagship query).")
    term

(* sweep *)

let sweep_cmd =
  let run lo hi points n delta csv =
    if not (lo > 0. && hi > lo) then
      `Error (false, "--lo and --hi must satisfy 0 < lo < hi")
    else
      let grid =
        List.init points (fun i ->
            let t = float_of_int i /. float_of_int (points - 1) in
            lo *. ((hi /. lo) ** t))
      in
      match check_grid ~n ~delta grid with
      | Error e -> `Error (false, e)
      | Ok () ->
        let rows = Core.Figure1.series ~n ~delta ~c_grid:grid () in
        emit_table ?csv (Core.Figure1.to_table rows) @@ fun () -> `Ok ()
  in
  let lo_arg =
    Arg.(value & opt float 0.5 & info [ "lo" ] ~docv:"LO" ~doc:"Smallest c.")
  in
  let hi_arg =
    Arg.(value & opt float 50. & info [ "hi" ] ~docv:"HI" ~doc:"Largest c.")
  in
  let points_arg =
    Arg.(value & opt (within int "an integer >= 2" (fun k -> k >= 2)) 21
         & info [ "points" ] ~docv:"N" ~doc:"Grid size (log-spaced).")
  in
  let term =
    Term.(
      ret
        (const run $ lo_arg $ hi_arg $ points_arg $ n_arg
        $ delta_arg Arg.float 1e13 $ csv_arg))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Tabulate every tolerable-nu curve over a custom log-spaced c grid.")
    term

(* trace *)

let trace_cmd =
  let run (_, make) nu seed out =
    guarded
      (fun () ->
        let trace = Sim.Trace.capture (make ~seed ~nu) in
        Option.iter
          (fun path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Sim.Trace.to_string trace)))
          out;
        trace)
      (fun trace ->
        (match out with
        | None -> print_string (Sim.Trace.to_string trace)
        | Some path -> Printf.printf "trace written to %s\n" path);
        print_endline (Sim.Trace.summarize trace);
        `Ok ())
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH" ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let term = Term.(ret (const run $ scenario_arg $ nu_arg $ seed_arg $ out_arg)) in
  Cmd.v
    (Cmd.info "trace" ~doc:"Capture a round-by-round execution trace.")
    term

(* confirm *)

let confirm_cmd =
  let run ((p : Core.Params.t), c) epsilon =
    guarded (fun () -> Core.Confirmation.assess ~epsilon p) @@ fun a ->
    Printf.printf "settlement at nu=%g, c=%g, Delta=%g, target risk %g:\n" p.nu
      c p.delta epsilon;
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
    let lo = Core.Confirmation.min_epsilon in
    let range = Printf.sprintf "a number in [%g, 1)" lo in
    Arg.(value
         & opt (within float range (fun e -> e >= lo && e < 1.)) 1e-3
         & info [ "epsilon" ] ~docv:"EPS"
             ~doc:"Acceptable double-spend probability, in [1e-9, 1).")
  in
  let point = point ~delta:(delta_arg Arg.float 10.) (c_arg ~default:6.) in
  let term = Term.(ret (const run $ point $ epsilon_arg)) in
  Cmd.v
    (Cmd.info "confirm"
       ~doc:"Compute a safe confirmation depth from the paper's rates.")
    term

(* campaign, serve and worker *)

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

let hostport =
  Arg.conv' (parse_hostport, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let fault_arg ~doc =
  let plan =
    Arg.conv'
      ( Campaign.Faultplan.of_string,
        fun ppf f -> Format.pp_print_string ppf (Campaign.Faultplan.to_string f) )
  in
  Arg.(value & opt (some plan) None & info [ "fault" ] ~docv:"PLAN" ~doc)

(* The daemon a campaign submits to or a worker leases from: a Unix
   socket or a TCP endpoint, at most one of the two. *)
let addr_arg =
  let sock =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCK"
             ~doc:"The serve daemon's Unix-domain socket (a campaign \
                   submits to it instead of computing in-process).")
  in
  let tcp =
    Arg.(value & opt (some hostport) None
         & info [ "connect-tcp" ] ~docv:"HOST:PORT"
             ~doc:"Dial the serve daemon over TCP instead of a Unix socket.")
  in
  let pick sock tcp =
    match (sock, tcp) with
    | Some _, Some _ -> Error "--connect and --connect-tcp are mutually exclusive"
    | Some s, None -> Ok (Some (Serve.Conn.Unix_path s))
    | None, Some (h, p) -> Ok (Some (Serve.Conn.Tcp (h, p)))
    | None, None -> Ok None
  in
  Term.(term_result' (const pick $ sock $ tcp))

let campaign_cmd =
  let run ps ns deltas nus trials rounds mode strategy mining_mode jobs seed
      resume out shard_size progress_interval retries fault telemetry addr =
    let spec =
      {
        Campaign.Spec.default with
        ps; ns; deltas; nus; trials_per_cell = trials; rounds; mode; strategy;
        mining_mode; seed; shard_size;
      }
    in
    match addr with
    | Some _ when fault <> None ->
      `Error
        (false, "--fault applies to compute processes; arm it on the \
                 worker subcommand instead")
    | Some _ when telemetry <> None ->
      `Error
        (false, "--telemetry is configured on the serve daemon, not \
                 per submission")
    | Some addr ->
      (* Daemon mode: the coordinator and its workers do the computing
         and the journaling; this process submits and watches. *)
      let on_progress (p : Nakamoto_wire.Message.progress) =
        if progress_interval > 0. then
          Printf.eprintf "campaign: %d/%d trials, %d/%d cells (daemon)\n%!"
            p.Nakamoto_wire.Message.p_trials_done p.p_trials_total
            p.p_cells_done p.p_cells_total
      in
      guarded ~who:"campaign" ~addr
        (fun () ->
          Serve.Client.submit ~addr ?journal:out ~resume ~on_progress spec)
        (function
          | Error e -> `Error (false, e)
          | Ok (table, journal) ->
            print_string table;
            Option.iter (Printf.printf "(journal: %s, daemon-side)\n") journal;
            `Ok ())
    | None ->
      let jobs = if jobs = 0 then None else Some jobs in
      let telemetry_clock = telemetry_clock_env () in
      guarded ~who:"campaign"
        (fun () ->
          Campaign.Campaign.run ?jobs ?journal_path:out ~resume ~retries ?fault
            ~progress_interval ?telemetry ?telemetry_clock spec)
        (fun outcome ->
          print_string
            (Nakamoto_numerics.Table.render
               (Campaign.Campaign.summary_table outcome));
          Option.iter (Printf.printf "(journal: %s)\n") out;
          Option.iter (Printf.printf "(telemetry: %s)\n") telemetry;
          `Ok ())
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
    let modes =
      [ ("full", Campaign.Spec.Full_protocol); ("state", Campaign.Spec.State_process) ]
    in
    Arg.(value & opt (enum modes) Campaign.Spec.Full_protocol
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"full (protocol + consistency audit) | state (fast \
                   binomial state process).")
  in
  let strategy_arg =
    let strategies =
      [
        ("idle", Sim.Adversary.Idle);
        ("private", Sim.Adversary.Private_chain { reorg_target = 12 });
        ("balance", Sim.Adversary.Balance { group_boundary = 15 });
        ("selfish", Sim.Adversary.Selfish_mining);
      ]
    in
    Arg.(value & opt (enum strategies) (List.assoc "private" strategies)
         & info [ "strategy" ] ~docv:"S"
             ~doc:"Adversary for full mode: idle | private | balance | selfish.")
  in
  let mining_arg =
    let minings =
      [
        ("exact", Sim.Config.Exact);
        ("aggregate", Sim.Config.Aggregate);
        ("skip", Sim.Config.Skip);
      ]
    in
    Arg.(value & opt (enum minings) Sim.Config.Exact
         & info [ "mining" ] ~docv:"M"
             ~doc:"Executor for full mode: exact (per-miner queries) | \
                   aggregate (binomial counts + shared delivery lane) | \
                   skip (aggregate that fast-forwards empty rounds; \
                   O(events)).  Every executor runs every strategy.")
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
         & info [ "out" ] ~docv:"PATH"
             ~doc:"JSONL journal path (daemon-side with --connect or \
                   --connect-tcp).")
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
    fault_arg
      ~doc:"Arm a fault-injection plan (testing): \
            crash-after-appends=N | torn-write=N | \
            raising-worker=TASK[:FAILURES] | \
            slow-worker=TASK[:SECONDS].  An injected crash exits \
            with status 70."
  in
  let telemetry_arg =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"DIR"
             ~doc:"Write telemetry.prom and telemetry.jsonl (per-domain \
                   shard timings, executor phase spans, journal fsync \
                   latency) into DIR when the campaign completes.")
  in
  let term =
    Term.(
      ret
        (const run $ ps_arg $ ns_arg $ deltas_arg $ nus_arg $ trials_arg
        $ rounds_arg $ mode_arg $ strategy_arg $ mining_arg $ jobs_arg
        $ seed_arg $ resume_arg $ out_arg $ shard_arg $ progress_arg
        $ retries_arg $ fault_arg $ telemetry_arg $ addr_arg))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a parallel Monte Carlo campaign over a (p, n, Delta, nu) grid \
          and compare observed violation rates with the analytic regions.")
    term

(* serve *)

let serve_cmd =
  let run socket tcp max_campaigns max_conns lease_timeout telemetry verbose =
    setup_logging verbose;
    if socket = None && tcp = None then
      `Error (false, "serve needs --socket SOCK, --listen HOST:PORT, or both")
    else
      let max_campaigns = if max_campaigns = 0 then None else Some max_campaigns in
      let telemetry_clock = telemetry_clock_env () in
      let on_tcp_port p = Printf.eprintf "serve: tcp port %d\n%!" p in
      guarded ~who:"serve"
        (fun () ->
          Serve.Coordinator.serve ?socket ?tcp ?max_campaigns ~max_conns
            ~lease_timeout ?telemetry ?telemetry_clock ~on_tcp_port ())
        (fun served ->
          Printf.printf "served %d campaign%s\n" served
            (if served = 1 then "" else "s");
          `Ok ())
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"SOCK"
             ~doc:"Unix-domain socket path to listen on (stale files are \
                   unlinked).")
  in
  let listen_arg =
    Arg.(value & opt (some hostport) None
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
                   drop a silent lease holder after SEC/2.  A worker holds \
                   its next batch while it computes the current one, so \
                   SEC must cover two batches' compute.")
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
  let term =
    Term.(
      ret
        (const run $ socket_arg $ listen_arg $ max_campaigns_arg
        $ max_conns_arg $ lease_timeout_arg $ telemetry_arg $ verbose_arg))
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
  let run addr lease_batch fault connect_timeout verbose =
    setup_logging verbose;
    match addr with
    | None -> `Error (false, "worker needs --connect SOCK or --connect-tcp HOST:PORT")
    | Some addr ->
      let telemetry_clock = telemetry_clock_env () in
      guarded ~who:"worker" ~addr
        (fun () ->
          Serve.Worker.run ~addr ~connect_timeout ~lease_batch ?fault
            ?telemetry_clock ())
        (fun shards ->
          Printf.printf "worker done: %d shard%s computed\n" shards
            (if shards = 1 then "" else "s");
          `Ok ())
  in
  let lease_batch_arg =
    Arg.(value & opt int 1
         & info [ "lease-batch" ] ~docv:"K"
             ~doc:"Ask for up to K leases per request (amortizes round \
                   trips at high shard counts).  The worker asks for its \
                   next batch before computing the current one, so it \
                   holds up to 2K leases.")
  in
  let fault_arg =
    fault_arg
      ~doc:"Arm a fault-injection plan (testing): \
            raising-worker=TASK[:FAILURES] kills this worker when \
            it leases shard TASK — the coordinator reassigns the \
            lease."
  in
  let connect_timeout_arg =
    Arg.(value & opt float 10.
         & info [ "connect-timeout" ] ~docv:"SEC"
             ~doc:"Keep retrying the connection for SEC seconds (covers \
                   starting the worker before the daemon).")
  in
  let term =
    Term.(
      ret (const run $ addr_arg $ lease_batch_arg $ fault_arg
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
  let run (p, _) eps1 eps2 =
    guarded (fun () -> Core.Lemmas.verify_chain ~eps1 ~eps2 p) @@ fun r ->
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
    Printf.printf "all steps hold: %b\n" r.all_hold;
    `Ok ()
  in
  let eps1_arg =
    Arg.(value & opt unit_open 0.5 & info [ "eps1" ] ~docv:"EPS1" ~doc:"Constant eps1 in (0,1).")
  in
  let eps2_arg =
    Arg.(value & opt positive 0.1 & info [ "eps2" ] ~docv:"EPS2" ~doc:"Constant eps2 > 0.")
  in
  let term =
    Term.(ret (const run $ point ~n:n_arg (c_arg ~default:4.) $ eps1_arg $ eps2_arg))
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
        trace_cmd; sweep_cmd; assess_cmd; serve_cmd; worker_cmd;
      ]
  in
  exit (Cmd.eval group)
