(* The five workloads.  Each has an end-to-end pass, which spawns the real
   CLI on the generated inputs, times it from outside and then checks its
   outputs, and a traced pass (--trace 1), which first runs the
   end-to-end pass and then replays the same inputs in this process with
   a span around every call into a library layer. *)

module Core = Nakamoto_core
module Json = Nakamoto_campaign.Json
module Spec = Nakamoto_campaign.Spec
module Campaign = Nakamoto_campaign.Campaign
module Aggregate = Nakamoto_campaign.Aggregate
module Shard = Nakamoto_campaign.Shard
module Journal = Nakamoto_campaign.Journal
module Execution = Nakamoto_sim.Execution
module Msg = Nakamoto_wire.Message
module Frame = Nakamoto_wire.Frame
module Serve = Nakamoto_serve
module Surface = Nakamoto_surface
module Chain = Nakamoto_markov.Chain

type ctx = {
  exe : string;  (** the CLI under test *)
  seed : int;
  size : float;  (** 1.0 = about 10 s of end-to-end work on the baseline *)
  trace : bool;
  dir : string;  (** this run's working directory *)
}

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  e2e : (string * float) list;
  layers : (string * float) list;  (** trace only *)
}

let sized ctx base = max 1 (int_of_float (Float.round (base *. ctx.size)))
let path ctx name = Filename.concat ctx.dir name
let errors_of results = List.filter_map (function Ok () -> None | Error e -> Some e) results

(* Set-up is sampled on several fresh processes and reported as a
   median: one spawn is too noisy to gate on. *)
let setup_probes = 4

let ms s = s *. 1e3

let coverage_metrics ~wall =
  [
    ("trace.coverage", Tracer.layer_self_time () /. wall);
    ( "trace.overhead_frac",
      float_of_int (Tracer.count ()) *. Tracer.span_cost () /. wall );
  ]

(* {1 assess-settle and assess-enumerable} *)

let warmup = {|{"nu":0,"c":3}|}

let query_line (p : Core.Params.t) =
  Json.render
    (Json.Obj
       [
         ("nu", Json.Num (Json.float_str p.nu));
         ("p", Num (Json.float_str p.p));
         ("n", Num (Json.float_str p.n));
         ("delta", Num (Json.float_str p.delta));
       ])

type assess_proc = {
  proc : Proc.t;
  input : Unix.file_descr;
  output : Proc.reader;
  setup : float;  (** spawn to the warm-up verdict *)
}

let start_assess ctx =
  let in_r, in_w = Proc.pipe () in
  let out_r, out_w = Proc.pipe () in
  let err = Proc.log_file (path ctx "assess.err") in
  let t0 = Clock.now () in
  let proc =
    Proc.spawn ~name:"assess" ~stdin:in_r ~stdout:out_w ~stderr:err ctx.exe
      [ "assess"; "--stdin-jsonl" ]
  in
  List.iter Unix.close [ in_r; out_w; err ];
  let output = Proc.reader out_r in
  Proc.write_line in_w warmup;
  match Proc.read_line output with
  | None -> failwith "assess exited before answering the warm-up query"
  | Some _ -> { proc; input = in_w; output; setup = Clock.now () -. t0 }

let stop_assess a =
  Unix.close a.input;
  Proc.drain a.output;
  Unix.close a.output.fd;
  ignore (Proc.wait a.proc)

(* Pipelined, as a batch user pipes a file in: query lines go in as fast
   as the pipe takes them while verdicts are read as they come out. *)
let assess_e2e ctx queries =
  let setups =
    List.init setup_probes (fun _ ->
        let a = start_assess ctx in
        stop_assess a;
        a.setup)
  in
  let cpu0 = Proc.child_cpu () in
  let a = start_assess ctx in
  Proc.watch a.proc;
  let n = Array.length queries in
  let input =
    String.concat "" (Array.to_list (Array.map (fun q -> query_line q ^ "\n") queries))
  in
  let replies = Array.make n None in
  let got = ref 0 and sent = ref 0 in
  Unix.set_nonblock a.input;
  let t_start = Clock.now () in
  (try
     while !got < n && not a.output.eof do
       let writing = !sent < String.length input in
       let readable, writable =
         Proc.select [ a.output.fd ] (if writing then [ a.input ] else []) (Proc.until_tick ())
       in
       if writable <> [] then sent := Proc.write_some a.input input !sent;
       if readable <> [] then Proc.fill a.output;
       let rec take () =
         match Proc.pop_line a.output with
         | Some l when !got < n ->
           replies.(!got) <- Some l;
           incr got;
           take ()
         | _ -> ()
       in
       take ();
       Proc.tick ()
     done
   with Unix.Unix_error (EPIPE, _, _) -> ());
  let wall = Clock.now () -. t_start in
  Proc.sample a.proc;
  stop_assess a;
  let cpu = Proc.child_cpu () -. cpu0 in
  (* Verdict line i + 2: the warm-up query is line 1. *)
  let errors =
    errors_of
      (List.init n (fun i ->
           match replies.(i) with
           | None -> Error (Printf.sprintf "query %d: no verdict" (i + 1))
           | Some raw ->
             Check.verdict ~line:(i + 2)
               ?oracle:(if i mod 50 = 0 then Some queries.(i) else None)
               raw))
    @
    if Proc.status_ok (Proc.wait a.proc) then []
    else [ Proc.describe_status a.proc ]
  in
  {
    attempted = n;
    failed = min n (List.length errors);
    errors;
    e2e =
      [
        ("units_per_s", float_of_int n /. wall);
        ("setup_s", Stats.median (a.setup :: setups));
        ("cpu_ms_per_unit", ms cpu /. float_of_int n);
        ("peak_rss_mb", Proc.hwm_mib a.proc);
      ];
    layers = [];
  }

(* The parse and encode steps of [assess --stdin-jsonl], as bin/main.ml
   performs them (batch_params_of_json, batch_record_of_verdict). *)
let params_of_json j =
  let f k = Option.map Json.to_float (Json.member_opt j k) in
  let n = Option.value (f "n") ~default:1e5 in
  let delta = Option.value (f "delta") ~default:1e13 in
  let nu = Option.get (f "nu") in
  match (f "p", f "c") with
  | Some p, _ -> Core.Params.create ~p ~n ~delta ~nu
  | None, c -> Core.Params.of_c ~n ~delta ~nu ~c:(Option.get c)

let record_of_verdict ~line (v : Core.Assessment.verdict) =
  let p = v.v_params in
  let opt k = function None -> [] | Some x -> [ (k, x) ] in
  let num x = Json.Num (Json.float_str x) in
  Json.render
    (Json.Obj
       ([
          ("ok", Json.Bool true);
          ("line", Num (string_of_int line));
          ("p", num p.p);
          ("n", num p.n);
          ("delta", num p.delta);
          ("nu", num p.nu);
          ("c", num (Core.Params.c p));
          ("zone", Str (Core.Assessment.zone_to_string v.v_zone));
          ("margin", num v.v_margin);
          ("margin_lo", num v.v_margin_lo);
          ("margin_hi", num v.v_margin_hi);
          ("cached", Bool v.v_cached);
        ]
       @ opt "confirmations"
           (Option.map (fun z -> Json.Num (string_of_int z)) v.v_confirmations)
       @ opt "conf_reason" (Option.map (fun r -> Json.Str r) v.v_conf_reason)
       @ opt "fallback" (Option.map (fun r -> Json.Str r) v.v_fallback)))

(* The bound inversions and envelopes [Assessment.assess] computes. *)
let bounds (params : Core.Params.t) =
  let nu = params.nu in
  let keep x = ignore (Sys.opaque_identity x) in
  if nu > 0. then begin
    keep (Core.Bounds.neat_c_min ~nu);
    keep (Core.Bounds.theorem2_c_min_optimal ~nu ~delta:params.delta ~eps2:1e-9)
  end;
  keep (Core.Bounds.theorem1_margin params);
  keep (Core.Growth_quality.growth_rate_lower_bound params);
  keep (Core.Growth_quality.growth_rate_upper_bound params);
  keep (Core.Growth_quality.quality_delta_adjusted params)

(* [Assessment.assess]'s suffix-chain probe, run where it runs: integer
   Delta up to 4096.  Returns the chain size. *)
let probe_delta (params : Core.Params.t) =
  let delta = params.delta in
  let alpha = Core.Params.alpha params in
  if Float.is_integer delta && delta >= 1. && delta <= 4096. && alpha > 0.
     && alpha < 1.
  then Some (int_of_float delta, alpha)
  else None

let probe ~delta ~alpha =
  let chain = Core.Suffix_chain.build ~delta ~alpha in
  let pi = Chain.stationary_auto chain in
  let closed = Core.Suffix_chain.stationary_closed_form ~delta ~alpha in
  ignore (Sys.opaque_identity (Nakamoto_numerics.Linalg.max_abs_diff pi closed));
  Chain.size chain

(* The ASSESSSCALE surface: a 4^4 certified table over the box the
   assess-enumerable queries are drawn from. *)
let surface_box () =
  let axis lo hi scale = Surface.Grid.axis ~lo ~hi ~count:4 ~scale in
  Surface.Grid.create
    ~p:(axis 1.6e-6 1.9e-6 Surface.Grid.Log)
    ~n:(axis 100. 140. Surface.Grid.Log)
    ~delta:(axis 1800. 2048. Surface.Grid.Log)
    ~nu:(axis 0.012 0.016 Surface.Grid.Linear)

let assess_trace ~e2e queries =
  Tracer.reset ();
  let n = Array.length queries in
  let depths = ref [] and limited = ref 0 and states = ref [] in
  let t0 = Clock.now () in
  Array.iteri
    (fun i q ->
      Tracer.in_unit i (fun () ->
          let params =
            Tracer.span "core.parse" (fun () ->
                params_of_json (Json.parse (query_line q)))
          in
          let t = Tracer.span "core.assess" (fun () -> Core.Assessment.assess params) in
          ignore
            (Tracer.span "core.encode" (fun () ->
                 record_of_verdict ~line:(i + 2) (Core.Assessment.verdict_of t)));
          Tracer.span "core.bounds" (fun () -> bounds params);
          (match
             Tracer.span "core.confirmation" (fun () ->
                 Core.Confirmation.assess_checked params)
           with
          | Ok a -> depths := float_of_int a.confirmations :: !depths
          | Error (Core.Confirmation.Depth_limited _) -> incr limited
          | Error _ -> ());
          match probe_delta params with
          | Some (delta, alpha) ->
            states :=
              Tracer.span "markov.probe" (fun () -> probe ~delta ~alpha) :: !states
          | None -> ()))
    queries;
  (* Surface answers for the same points, where a surface covers them. *)
  let surface =
    if !states = [] then []
    else begin
      let table = Tracer.span "surface.build" (fun () -> Surface.Table.build (surface_box ())) in
      let hits =
        List.filter
          (fun (q : Core.Params.t) ->
            Result.is_ok (Surface.Table.lookup table ~p:q.p ~n:q.n ~delta:q.delta ~nu:q.nu))
          (Array.to_list queries)
      in
      List.iteri
        (fun k q ->
          Tracer.in_unit (n + k) (fun () ->
              ignore (Tracer.span "surface.cached" (fun () -> Surface.Table.assess_cached table q))))
        hits;
      let nh = List.length hits in
      [
        ("surface.build_s", Tracer.total "surface.build");
        ("surface.cached_us", Tracer.total "surface.cached" *. 1e6 /. float_of_int (max 1 nh));
        ("surface.hit_frac", float_of_int nh /. float_of_int n);
      ]
    end
  in
  let wall = Clock.now () -. t0 in
  let per name = Tracer.total name /. float_of_int n in
  let leaves =
    List.fold_left (fun acc l -> acc +. per l) 0.
      [ "core.parse"; "core.bounds"; "core.confirmation"; "markov.probe"; "core.encode" ]
  in
  let probed = List.length !states in
  [
    ("core.parse_us", per "core.parse" *. 1e6);
    ("core.encode_us", per "core.encode" *. 1e6);
    ("core.bounds_us", per "core.bounds" *. 1e6);
    ("core.confirmation_us", per "core.confirmation" *. 1e6);
    ("core.confirmation_depth_mean", Stats.mean !depths);
    ("core.depth_limited_frac", float_of_int !limited /. float_of_int n);
    ("core.assess_us", per "core.assess" *. 1e6);
    ("markov.probe_us", per "markov.probe" *. 1e6);
    ("markov.states_mean", Stats.mean (List.map float_of_int !states));
    ( "markov.sparse_frac",
      float_of_int (List.length (List.filter (fun s -> s > Chain.sparse_crossover) !states))
      /. float_of_int (max 1 probed) );
    ("trace.residual_frac", 1. -. (leaves *. List.assoc "units_per_s" e2e));
  ]
  @ surface @ coverage_metrics ~wall

let assess ctx queries =
  let r = assess_e2e ctx queries in
  if ctx.trace then { r with layers = assess_trace ~e2e:r.e2e queries } else r

(* {1 campaign-paper and campaign-small} *)

let mining_name = function
  | Nakamoto_sim.Config.Exact -> "exact"
  | Aggregate -> "aggregate"
  | Skip -> "skip"

(* The CLI flags that make the campaign subcommand build [s]; the journal
   fingerprint check confirms it did. *)
let spec_args (s : Spec.t) =
  let floats xs = String.concat "," (List.map Json.float_str xs) in
  let ints xs = String.concat "," (List.map string_of_int xs) in
  [
    "-p"; floats s.ps; "--miners"; ints s.ns; "--delta"; ints s.deltas;
    "--nu"; floats s.nus; "--trials"; string_of_int s.trials_per_cell;
    "--rounds"; string_of_int s.rounds; "--mining"; mining_name s.mining_mode;
    "--shard-size"; string_of_int s.shard_size;
    (* A negative seed must be glued to its flag. *)
    "--seed=" ^ Int64.to_string s.seed; "--progress-interval"; "0";
  ]

type campaign_run = {
  spec : Spec.t;
  journal : string;
  c_setup : float;  (** spawn to the journal header on disk *)
  elapsed : float;  (** spawn to exit *)
  c_proc : Proc.t;
}

let header_written journal =
  match Unix.stat journal with
  | { st_size; _ } when st_size > 0 -> (
    match Check.read_file journal with
    | Ok s -> String.contains s '\n'
    | Error _ -> false)
  | _ | (exception Unix.Unix_error _) -> false

let run_campaign ctx ~jobs spec ~journal =
  let out_r, out_w = Proc.pipe () in
  let err = Proc.log_file (path ctx "campaign.err") in
  let t0 = Clock.now () in
  let p =
    Proc.spawn ~name:"campaign" ~stdout:out_w ~stderr:err ctx.exe
      ("campaign" :: "--jobs" :: string_of_int jobs :: "--out" :: journal :: spec_args spec)
  in
  Unix.close out_w;
  Unix.close err;
  Proc.watch p;
  let out = Proc.reader out_r in
  let setup = ref None in
  while not out.eof do
    (* Poll every 0.1 ms until the header lands: set-up is ~2.5 ms, a
       0.5 ms poll quantized it and spinning slowed the child.  Then wake
       only to sample RSS; the pipe's EOF marks the exit. *)
    let timeout = if !setup = None then 0.0001 else Proc.until_tick () in
    if fst (Proc.select [ out_r ] [] timeout) <> [] then Proc.fill out;
    Proc.discard out;
    if !setup = None && header_written journal then
      setup := Some (Clock.now () -. t0);
    Proc.tick ()
  done;
  ignore (Proc.wait p);
  let elapsed = Clock.now () -. t0 in
  Unix.close out_r;
  {
    spec;
    journal;
    c_setup = Option.value !setup ~default:elapsed;
    elapsed;
    c_proc = p;
  }

(* Campaigns are submitted back to back, one at a time, each with its own
   seed; each one's spawn-to-header time is a set-up sample. *)
let campaign_e2e ctx ~jobs ?(between = fun _ _ -> ()) specs =
  let cpu0 = Proc.child_cpu () in
  let runs =
    List.mapi
      (fun k spec ->
        let r =
          run_campaign ctx ~jobs spec
            ~journal:(path ctx (Printf.sprintf "campaign-%d.jsonl" k))
        in
        between k spec;
        r)
      specs
  in
  let cpu = Proc.child_cpu () -. cpu0 in
  let check k r =
    let ( let* ) = Result.bind in
    let* () =
      if Proc.status_ok (Proc.wait r.c_proc) then Ok ()
      else Error (Proc.describe_status r.c_proc)
    in
    let* contents = Check.read_file r.journal in
    let* () = Check.journal_shape r.spec contents in
    (* The first campaign of the run is also rerun in this process. *)
    if k > 0 then Ok ()
    else
      let* expected = Check.oracle_journal r.spec ~path:(path ctx "oracle.jsonl") in
      Check.identical ~expected contents
  in
  let checked = List.mapi (fun k r -> (r, check k r)) runs in
  let trials r = Spec.trial_count r.spec in
  let total = List.fold_left (fun acc r -> acc + trials r) 0 runs in
  {
    attempted = total;
    failed =
      List.fold_left
        (fun acc (r, c) -> if Result.is_ok c then acc else acc + trials r)
        0 checked;
    errors = errors_of (List.map snd checked);
    e2e =
      [
        ( "units_per_s",
          float_of_int total /. List.fold_left (fun acc r -> acc +. r.elapsed) 0. runs );
        ("setup_s", Stats.median (List.map (fun r -> r.c_setup) runs));
        ("cpu_ms_per_unit", ms cpu /. float_of_int total);
        ( "peak_rss_mb",
          List.fold_left (fun acc r -> Float.max acc (Proc.hwm_mib r.c_proc)) 0. runs );
      ];
    layers = [];
  }

(* Replay one shard twice: through [Campaign.run_shard], the call the
   worker pool makes, and through its three steps, whose aggregate must
   equal the first. *)
type shard_stats = {
  mutable trials : int;
  mutable events : int;
  mutable tips : int;
  mutable mismatches : int;
}

let replay_shard st spec cells (sh : Shard.t) =
  let agg = Tracer.span "campaign.shard" (fun () -> Campaign.run_shard spec cells sh) in
  let acc = Aggregate.create () in
  let cell = cells.(sh.cell_index) in
  for trial = sh.trial_start to sh.trial_stop - 1 do
    let r =
      Tracer.span "sim.execute" (fun () ->
          Execution.run (Spec.config_of_cell spec cell ~trial))
    in
    st.trials <- st.trials + 1;
    st.events <- st.events + r.processed_rounds;
    List.iter (fun (s : Execution.snapshot) -> st.tips <- st.tips + Array.length s.tips) r.snapshots;
    let obs = Tracer.span "campaign.audit" (fun () -> Aggregate.of_execution r) in
    Tracer.span "campaign.fold" (fun () -> Aggregate.observe acc obs)
  done;
  if compare (Aggregate.snapshot acc) (Aggregate.snapshot agg) <> 0 then
    st.mismatches <- st.mismatches + 1;
  agg

let plan spec =
  Shard.plan ~cells:(Spec.cell_count spec) ~trials_per_cell:spec.Spec.trials_per_cell
    ~shard_size:spec.shard_size ~skip:(fun _ -> false)

(* Every fourth shard: a quarter of the trials, replayed serially. *)
let sampled (sh : Shard.t) = sh.id mod 4 = 0

let shard_layers st =
  let per_trial name = Tracer.total name /. float_of_int (max 1 st.trials) in
  let _, shards = Option.value (Hashtbl.find_opt (Tracer.totals ()) "campaign.shard") ~default:(0., 1) in
  [
    ("sim.execute_ms", ms (per_trial "sim.execute"));
    ("sim.events_per_trial", float_of_int st.events /. float_of_int (max 1 st.trials));
    ("campaign.audit_ms", ms (per_trial "campaign.audit"));
    ("campaign.snapshot_tips", float_of_int st.tips /. float_of_int (max 1 st.trials));
    ("campaign.fold_us", per_trial "campaign.fold" *. 1e6);
    ("campaign.shard_ms", ms (Tracer.total "campaign.shard" /. float_of_int shards));
  ]

(* The traced replay replays each campaign's sampled shards right after
   that campaign's end-to-end run, so both see the same host speed: on the
   drifting baseline machine, replaying everything ten seconds later moved
   the residual by up to 0.2.  Returns the per-campaign replay and the
   function that turns what it recorded into layer metrics. *)
let campaign_replay ctx =
  Tracer.reset ();
  let st = { trials = 0; events = 0; tips = 0; mismatches = 0 } in
  let writer = Journal.create_writer ~path:(path ctx "trace-journal.jsonl") ~fresh:true () in
  let appends = ref 0 and busy = ref 0. in
  let append line =
    incr appends;
    Tracer.span "campaign.journal_append" (fun () -> Journal.append writer line)
  in
  let replay k spec =
    let t0 = Clock.now () in
    let cells = Spec.cells spec in
    let accs = Array.map (fun _ -> Aggregate.create ()) cells in
    Array.iter
      (fun (sh : Shard.t) ->
        if sampled sh then
          Tracer.in_unit ((k * Spec.trial_count spec) + sh.id) (fun () ->
              let agg = replay_shard st spec cells sh in
              accs.(sh.cell_index) <- Aggregate.merge accs.(sh.cell_index) agg))
      (plan spec);
    append (Journal.Header (Journal.header_of_spec spec));
    Array.iteri (fun i c -> append (Journal.Cell (c, Aggregate.snapshot accs.(i)))) cells;
    busy := !busy +. (Clock.now () -. t0)
  in
  let finish ~e2e specs =
    Journal.close_writer writer;
    (* The end-to-end run appends (cells + 1) lines per campaign. *)
    let trials_per_campaign = Spec.trial_count (List.hd specs) in
    let lines_per_campaign = Spec.cell_count (List.hd specs) + 1 in
    let append_s = Tracer.total "campaign.journal_append" /. float_of_int (max 1 !appends) in
    let per_trial name = Tracer.total name /. float_of_int (max 1 st.trials) in
    let leaves =
      per_trial "sim.execute" +. per_trial "campaign.audit" +. per_trial "campaign.fold"
      +. (append_s *. float_of_int lines_per_campaign /. float_of_int trials_per_campaign)
    in
    let layers =
      shard_layers st
      @ [
          ("campaign.journal_append_ms", ms append_s);
          ("trace.residual_frac", 1. -. (ms leaves /. List.assoc "cpu_ms_per_unit" e2e));
        ]
      @ coverage_metrics ~wall:!busy
    in
    (layers, st.mismatches)
  in
  (replay, finish)

(* Adds a traced replay's layers to the end-to-end result; a replayed
   shard whose steps disagree with [Campaign.run_shard] is a failure. *)
let with_replay r (layers, mismatches) =
  let r = { r with layers = r.layers @ layers } in
  if mismatches = 0 then r
  else
    {
      r with
      failed = r.failed + mismatches;
      errors = Printf.sprintf "%d replayed shards differ from run_shard" mismatches :: r.errors;
    }

let campaign ctx ~jobs specs =
  if not ctx.trace then campaign_e2e ctx ~jobs specs
  else
    let replay, finish = campaign_replay ctx in
    let r = campaign_e2e ctx ~jobs ~between:replay specs in
    with_replay r (finish ~e2e:r.e2e specs)

(* {1 serve-mixed} *)

(* Open-loop RPC rate: independent users, so the next RPC is sent when
   it is due, not when the previous reply arrives. *)
let rpc_rate = 200.

type daemon = { d : Proc.t; err : Proc.reader; port : int; d_setup : float }

let start_daemon ctx ~sock ?telemetry () =
  let err_r, err_w = Proc.pipe () in
  let t0 = Clock.now () in
  let d =
    Proc.spawn ~name:"serve" ~stderr:err_w ctx.exe
      ([ "serve"; "--socket"; sock; "--listen"; "127.0.0.1:0" ]
      @ match telemetry with Some dir -> [ "--telemetry"; dir ] | None -> [])
  in
  Unix.close err_w;
  let err = Proc.reader err_r in
  let rec port () =
    match Proc.read_line err with
    | None -> failwith "serve exited before printing its tcp port"
    | Some l -> (
      match Scanf.sscanf_opt l "serve: tcp port %d" Fun.id with
      | Some p -> p
      | None -> port ())
  in
  let port = port () in
  { d; err; port; d_setup = Clock.now () -. t0 }

let stop_daemon dm =
  Proc.terminate dm.d;
  Proc.drain dm.err;
  Unix.close dm.err.fd

let prom_values path =
  match Check.read_file path with
  | Error _ -> []
  | Ok s ->
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ k; v ] when l.[0] <> '#' -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' s)

let serve_e2e ctx ~spec ~points =
  let sock = path ctx "serve.sock" and journal = path ctx "serve-journal.jsonl" in
  let setups =
    List.init setup_probes (fun _ ->
        let dm = start_daemon ctx ~sock () in
        stop_daemon dm;
        dm.d_setup)
  in
  let telemetry = if ctx.trace then Some (path ctx "telemetry") else None in
  let cpu0 = Proc.child_cpu () in
  let dm = start_daemon ctx ~sock ?telemetry () in
  Proc.watch dm.d;
  let log = Proc.log_file (path ctx "serve.log") in
  let w =
    Proc.spawn ~name:"worker" ~stdout:log ~stderr:log ctx.exe
      [ "worker"; "--connect"; sock; "--lease-batch"; "1" ]
  in
  Proc.watch w;
  let addr = Serve.Conn.Tcp ("127.0.0.1", dm.port) in
  let rpc (nu, c) =
    match
      Serve.Client.assess ~addr ~nu ~c ~n:Gen.internet_n ~delta:Gen.internet_delta ()
    with
    | r -> r
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let point k = points.(k mod Array.length points) in
  (* The daemon's floor: RPCs against it before any campaign arrives. *)
  let idle =
    if ctx.trace then
      List.init 100 (fun k ->
          let t = Clock.now () in
          ignore (rpc (point k));
          Clock.now () -. t)
    else []
  in
  let out_r, out_w = Proc.pipe () in
  let t_start = Clock.now () in
  let c =
    Proc.spawn ~name:"campaign" ~stdout:out_w ~stderr:log ctx.exe
      ("campaign" :: "--connect" :: sock :: "--out" :: journal :: spec_args spec)
  in
  Unix.close out_w;
  Unix.close log;
  Proc.watch c;
  let out = Proc.reader out_r in
  let rpcs = ref [] and k = ref 0 in
  while not out.eof do
    let due = t_start +. (float_of_int !k /. rpc_rate) in
    let now = Clock.now () in
    if now >= due then begin
      let r = rpc (point !k) in
      rpcs := (point !k, now -. due, Clock.now () -. due, r) :: !rpcs;
      incr k
    end
    else begin
      let fds = out_r :: (if dm.err.eof then [] else [ dm.err.fd ]) in
      let ready, _ = Proc.select fds [] (Float.min (due -. now) (Proc.until_tick ())) in
      List.iter (fun fd -> Proc.fill (if fd == out_r then out else dm.err)) ready;
      Proc.discard out;
      Proc.discard dm.err
    end;
    Proc.tick ()
  done;
  let wall = Clock.now () -. t_start in
  ignore (Proc.wait c);
  Unix.close out_r;
  List.iter Proc.sample [ dm.d; w ];
  stop_daemon dm;
  (* The worker exits on the daemon's EOF. *)
  ignore (Proc.wait w);
  let cpu = Proc.child_cpu () -. cpu0 in
  let rpcs = List.rev !rpcs in
  let rpc_latencies = List.map (fun (_, _, l, _) -> l) rpcs in
  let shards = Spec.trial_count spec in
  let journal_check =
    let ( let* ) = Result.bind in
    let* () = if Proc.status_ok (Proc.wait c) then Ok () else Error (Proc.describe_status c) in
    let* contents = Check.read_file journal in
    let* () = Check.journal_shape spec contents in
    let* expected = Check.oracle_journal spec ~path:(path ctx "oracle.jsonl") in
    Check.identical ~expected contents
  in
  let rpc_checks =
    List.map
      (fun ((nu, c), _, _, r) ->
        match r with
        | Error e -> Error ("rpc failed: " ^ e)
        | Ok reply ->
          Check.rpc_reply
            ~params:(Core.Params.of_c ~n:Gen.internet_n ~delta:Gen.internet_delta ~nu ~c)
            reply)
      rpcs
  in
  let errors = errors_of (journal_check :: rpc_checks) in
  let prom =
    Option.fold ~none:[] ~some:(fun dir -> prom_values (Filename.concat dir "telemetry.prom")) telemetry
  in
  let prom_metric (name, key) =
    (name, Option.value (List.assoc_opt key prom) ~default:0.)
  in
  {
    attempted = shards + List.length rpcs;
    failed =
      (if Result.is_ok journal_check then 0 else shards)
      + List.length (errors_of rpc_checks);
    errors;
    e2e =
      [
        ("units_per_s", float_of_int shards /. wall);
        ("setup_s", Stats.median (dm.d_setup :: setups));
        ("cpu_ms_per_unit", ms cpu /. float_of_int shards);
        ("peak_rss_mb", Proc.hwm_mib dm.d +. Proc.hwm_mib w +. Proc.hwm_mib c);
      ];
    layers =
      (if ctx.trace then
         [
           ("serve.rpc_idle_p50_ms", ms (Stats.median idle));
           ("serve.rpc_p50_ms", ms (Stats.median rpc_latencies));
           ("serve.rpc_p99_ms", ms (Stats.percentile rpc_latencies 0.99));
           ("serve.daemon_rss_mb", Proc.hwm_mib dm.d);
           ("loadgen.late_p99_ms", ms (Stats.percentile (List.map (fun (_, l, _, _) -> l) rpcs) 0.99));
         ]
         @ List.map prom_metric
             [
               ("serve.leases_granted", "serve_leases_granted_total");
               ("serve.frames_in", "serve_frames_in_total");
               ("serve.frames_out", "serve_frames_out_total");
               ("serve.fold_s", "serve_fold_seconds_sum");
             ]
       else []);
  }

let frame m =
  let tag, payload = Msg.encode m in
  Frame.encode ~tag ~payload ()

let unframe bytes =
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed d bytes;
  match Frame.Decoder.next d with
  | `Frame (tag, payload) -> (
    match Msg.decode ~tag ~payload with Ok m -> m | Error e -> failwith e)
  | `Awaiting | `Bad _ -> failwith "frame did not decode"

(* The daemon's side of each sampled shard: the worker's compute, the
   three frames of its lease cycle through the codec, and the fold. *)
let serve_trace ~r ~spec =
  Tracer.reset ();
  let st = { trials = 0; events = 0; tips = 0; mismatches = 0 } in
  let cells = Spec.cells spec in
  let accs = Array.map (fun _ -> Aggregate.create ()) cells in
  let bytes = ref 0 in
  let t0 = Clock.now () in
  Array.iter
    (fun (sh : Shard.t) ->
      if sampled sh then
        Tracer.in_unit sh.id (fun () ->
            let agg = replay_shard st spec cells sh in
            let lease = { Msg.lease_id = sh.id; shard = sh } in
            let frames =
              Tracer.span "wire.encode" (fun () ->
                  List.map frame
                    [
                      Msg.Lease_request { max = 1 };
                      Msg.Lease_grant { grants = [ lease ]; spec };
                      Msg.Cell_result
                        {
                          res_lease = sh.id;
                          res_shard = sh.id;
                          res_aggregate = Aggregate.snapshot agg;
                          res_telemetry = [];
                        };
                    ])
            in
            bytes := !bytes + List.fold_left (fun acc f -> acc + String.length f) 0 frames;
            Tracer.span "wire.decode" (fun () -> List.iter (fun f -> ignore (unframe f)) frames);
            accs.(sh.cell_index) <-
              Tracer.span "campaign.fold" (fun () -> Aggregate.merge accs.(sh.cell_index) agg)))
    (plan spec);
  let wall = Clock.now () -. t0 in
  let shards = float_of_int (max 1 st.trials) in
  let per name = Tracer.total name /. shards in
  let wire = per "wire.encode" +. per "wire.decode" in
  let leaves = per "sim.execute" +. per "campaign.audit" +. per "campaign.fold" +. wire in
  let layers =
    shard_layers st
    @ [
        ("wire.encode_us", per "wire.encode" *. 1e6);
        ("wire.decode_us", per "wire.decode" *. 1e6);
        ("wire.bytes_per_shard", float_of_int !bytes /. shards);
        ( "serve.protocol_ms_per_shard",
          ms ((1. /. List.assoc "units_per_s" r.e2e) -. per "campaign.shard" -. wire) );
        ("trace.residual_frac", 1. -. (ms leaves /. List.assoc "cpu_ms_per_unit" r.e2e));
      ]
    @ coverage_metrics ~wall
  in
  (layers, st.mismatches)

let serve ctx ~spec ~points =
  let r = serve_e2e ctx ~spec ~points in
  if ctx.trace then with_replay r (serve_trace ~r ~spec) else r

(* {1 Sizes}  Counts are fixed per --seconds, set so that each workload
   takes about that long on the baseline commit and machine; a change
   that makes one ten times faster is followed by a resize. *)

let run ctx name =
  let seed = ctx.seed in
  let campaigns ~workload ~count make =
    List.init (sized ctx count) (fun k -> make ~seed:(Gen.campaign_seed ~seed ~workload k))
  in
  match name with
  | "assess-settle" -> assess ctx (Gen.settle_queries ~seed ~count:(sized ctx 1000.))
  | "assess-enumerable" -> assess ctx (Gen.enumerable_queries ~seed ~count:(sized ctx 3000.))
  (* One domain for campaign-paper: on the 2-vCPU baseline machine a
     second domain added 30-70% CPU per trial and doubled the run-to-run
     spread, drowning the audit it exists to measure.  campaign-small
     keeps two, so the worker pool is exercised. *)
  | "campaign-paper" -> campaign ctx ~jobs:1 (campaigns ~workload:0 ~count:15. Gen.paper_spec)
  | "campaign-small" -> campaign ctx ~jobs:2 (campaigns ~workload:1 ~count:24. Gen.small_spec)
  | "serve-mixed" ->
    serve ctx
      ~spec:(Gen.serve_spec ~seed:(Gen.campaign_seed ~seed ~workload:2 0) ~trials:(sized ctx 7_500.))
      ~points:(Gen.rpc_points ~seed ~count:4096)
  | other -> invalid_arg ("unknown workload " ^ other)
