(* The benchmark's workloads and metrics, by name and unit.  BENCHMARK.json
   at the repository root repeats these lists with the regression bounds;
   [perf.exe selftest] fails when the two disagree. *)

let workloads =
  [
    "assess-settle"; "assess-enumerable"; "campaign-paper"; "campaign-small";
    "serve-mixed";
  ]

(* Every workload reports every end-to-end metric.  A unit is a query on
   assess-*, a trial on campaign-*, a one-trial shard on serve-mixed.
   Request latency is a per-layer number (serve.rpc_p50_ms,
   serve.rpc_p99_ms), not a gate: on the 2-vCPU baseline machine the
   medians of IPC-bound latencies moved by up to 56% between two sets of
   ten runs, and the RPC p99's IQR over median was 0.26-0.64 across ten
   runs. *)
let end_to_end =
  [
    ("units_per_s", "units/s");
    ("setup_s", "s");
    ("cpu_ms_per_unit", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("core.parse_us", "us");
    ("core.encode_us", "us");
    ("core.bounds_us", "us");
    ("core.confirmation_us", "us");
    ("core.confirmation_depth_mean", "count");
    ("core.depth_limited_frac", "ratio");
    ("core.assess_us", "us");
    ("markov.probe_us", "us");
    ("markov.states_mean", "count");
    ("markov.sparse_frac", "ratio");
    ("surface.build_s", "s");
    ("surface.cached_us", "us");
    ("surface.hit_frac", "ratio");
    ("sim.execute_ms", "ms");
    ("sim.events_per_trial", "count");
    ("campaign.audit_ms", "ms");
    ("campaign.snapshot_tips", "count");
    ("campaign.fold_us", "us");
    ("campaign.journal_append_ms", "ms");
    ("campaign.shard_ms", "ms");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.bytes_per_shard", "bytes");
    ("serve.rpc_idle_p50_ms", "ms");
    ("serve.rpc_p50_ms", "ms");
    ("serve.rpc_p99_ms", "ms");
    ("serve.protocol_ms_per_shard", "ms");
    ("serve.leases_granted", "count");
    ("serve.frames_in", "count");
    ("serve.frames_out", "count");
    ("serve.fold_s", "s");
    ("serve.daemon_rss_mb", "MiB");
    ("trace.coverage", "ratio");
    ("trace.residual_frac", "ratio");
    ("trace.overhead_frac", "ratio");
    ("loadgen.late_p99_ms", "ms");
  ]

(* JSON numbers carry every digit; a value that is not finite (no
   samples) prints as 0 and the run is already marked failed. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* {2 BENCHMARK.json} *)

module Json = Nakamoto_campaign.Json

type bound = { name : string; unit : string; better : string; bound : float }

let load_benchmark ?(path = "BENCHMARK.json") () =
  match Check.read_file path with
  | Error e -> Error e
  | Ok s -> (
    match
      let j = Json.parse s in
      let names k =
        List.map
          (fun w -> Json.to_string (Json.member w "name"))
          (Json.to_list (Json.member j k))
      in
      let metrics k =
        List.map
          (fun m ->
            {
              name = Json.to_string (Json.member m "name");
              unit = Json.to_string (Json.member m "unit");
              better = Json.to_string (Json.member m "better");
              bound =
                (match Json.member_opt m "bound" with
                | Some b -> Json.to_float b
                | None -> nan);
            })
          (Json.to_list (Json.member j k))
      in
      (names "workloads", metrics "end_to_end", metrics "per_layer")
    with
    | v -> Ok v
    | exception Json.Malformed m -> Error (path ^ ": " ^ m))
