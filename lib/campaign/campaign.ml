module Sim = Nakamoto_sim
module Core = Nakamoto_core
module Table = Nakamoto_numerics.Table
module Tel = Nakamoto_telemetry

type cell_result = {
  cell : Spec.cell;
  aggregate : Aggregate.t;
  from_journal : bool;
}

type outcome = {
  spec : Spec.t;
  cells : cell_result array;
  fresh_trials : int;
  resumed_cells : int;
  jobs : int;
  elapsed : float;
  telemetry : Tel.Registry.Snapshot.t option;
}

let run_shard ?telemetry spec cells (sh : Shard.t) =
  let cell = cells.(sh.Shard.cell_index) in
  let agg = Aggregate.create () in
  for trial = sh.Shard.trial_start to sh.Shard.trial_stop - 1 do
    let obs =
      match spec.Spec.mode with
      | Spec.Full_protocol ->
        let cfg = Spec.config_of_cell spec cell ~trial in
        Aggregate.of_execution (Sim.Execution.run ?telemetry cfg)
      | Spec.State_process ->
        let rng = Spec.trial_rng spec cell ~trial in
        Aggregate.of_state_run
          (Sim.State_process.run ~rng
             (Spec.state_config_of_cell cell)
             ~rounds:spec.Spec.rounds)
    in
    Aggregate.observe agg obs
  done;
  agg

let default_log msg = Printf.eprintf "campaign: %s\n%!" msg

(* The progress reporter's derived one-liner: overall p50/p99 shard time
   and the domain with the most accumulated busy time, read off the
   merged [campaign_shard_seconds{domain=...}] spans. *)
let shard_progress_view snap =
  let spans =
    List.filter_map
      (fun ((k : Tel.Registry.Snapshot.key), v) ->
        match v with
        | Tel.Registry.Snapshot.Span h -> Some (k.labels, h)
        | _ -> None)
      (Tel.Registry.Snapshot.find_all snap "campaign_shard_seconds")
  in
  let all =
    List.fold_left
      (fun acc (_, h) -> Tel.Histogram.merge acc h)
      Tel.Histogram.empty spans
  in
  if all.Tel.Histogram.s_count = 0 then ""
  else begin
    let slowest =
      List.fold_left
        (fun acc (labels, (h : Tel.Histogram.snapshot)) ->
          match acc with
          | Some (_, best) when best >= h.Tel.Histogram.s_sum -> acc
          | _ -> Some (labels, h.Tel.Histogram.s_sum))
        None spans
    in
    let slowest_str =
      match slowest with
      | Some (labels, busy) ->
        let d = Option.value ~default:"?" (List.assoc_opt "domain" labels) in
        Printf.sprintf "; slowest domain %s (%.2fs busy)" d busy
      | None -> ""
    in
    Printf.sprintf "shard time p50 %.3fs p99 %.3fs over %d shards%s"
      (Tel.Histogram.quantile all 0.5)
      (Tel.Histogram.quantile all 0.99)
      all.Tel.Histogram.s_count slowest_str
  end

(* The plan-order fold: the one place that turns landed shards into
   journal lines and an outcome.  [Campaign.run] drives it from the
   worker pool's result callback and the serve coordinator from its
   lease results; everything that makes a journal byte-identical across
   [--jobs], transports and kill/resume lives here.  Slots merge in slot
   order, journal lines flush in cell order, telemetry snapshots merge
   in plan order. *)
module Fold = struct
  type t = {
    spec : Spec.t;
    cells : Spec.cell array;
    plan : Shard.t array;
    completed : Aggregate.t option array;
    from_journal : bool array;
    writer : Journal.writer option;
    fault : Faultplan.armed option;
    registry : Tel.Registry.t option;
    fold_span : Tel.Span.t option;
    shard_results : Aggregate.t option array array;
        (* a merged cell's row is dropped to [||] *)
    shards_done : int array;
    shard_snaps : Tel.Registry.Snapshot.t array;  (* by plan position *)
    resumed_cells : int;
    started : float;
    mutable next_flush : int;
    mutable trials_done : int;
    mutable cells_done : int;
  }

  let spec t = t.spec
  let cells t = t.cells
  let plan t = t.plan
  let trials_done t = t.trials_done
  let cells_done t = t.cells_done
  let finished t = t.cells_done = Array.length t.cells
  let close t = Option.iter Journal.close_writer t.writer

  (* Journal lines go out strictly in cell order: a cell that finishes
     early waits here until every lower-indexed cell has been flushed.
     Recovered cells are already on disk. *)
  let flush_prefix t =
    let ncells = Array.length t.cells in
    while t.next_flush < ncells && t.completed.(t.next_flush) <> None do
      let i = t.next_flush in
      (match (t.writer, t.completed.(i)) with
      | Some w, Some agg when not t.from_journal.(i) ->
        Faultplan.journal_append t.fault w
          (Journal.Cell (t.cells.(i), Aggregate.snapshot agg))
      | _ -> ());
      t.next_flush <- i + 1
    done

  let create ?registry ?fault ?fold_span ?journal_path ~resume ~log spec =
    let started = Unix.gettimeofday () in
    let cells = Spec.cells spec in
    let ncells = Array.length cells in
    let completed : Aggregate.t option array = Array.make ncells None in
    let from_journal = Array.make ncells false in
    (* On resume, load the journal — repairing a torn tail, and starting
       fresh over an unusable file, both logged — after a fingerprint
       check.  The writer stays open (and fsyncs every append) until the
       run ends. *)
    let recovered =
      match journal_path with
      | Some path when resume -> (
        match
          Journal.fold ~log ~path ~fingerprint:(Spec.fingerprint spec)
            ~init:() (fun () (cell : Spec.cell) snap ->
              if cell.Spec.index < 0 || cell.Spec.index >= ncells then
                failwith
                  (Printf.sprintf "journal %s: cell index out of range" path);
              completed.(cell.Spec.index) <- Some (Aggregate.of_snapshot snap);
              from_journal.(cell.Spec.index) <- true)
        with
        | Journal.Fresh _ -> false
        | Journal.Recovered { entries; _ } ->
          log
            (Printf.sprintf "resuming %s: %d of %d cells recovered from %s"
               (Spec.describe spec) entries ncells path);
          true)
      | _ -> false
    in
    let writer =
      Option.map
        (fun path ->
          let w =
            Journal.create_writer ?telemetry:registry ~path
              ~fresh:(not recovered) ()
          in
          if not recovered then begin
            try
              Faultplan.journal_append fault w
                (Journal.Header (Journal.header_of_spec spec))
            with e ->
              Journal.close_writer w;
              raise e
          end;
          w)
        journal_path
    in
    let resumed_cells =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 from_journal
    in
    let tpc = spec.Spec.trials_per_cell and size = spec.Spec.shard_size in
    let plan =
      Shard.plan ~cells:ncells ~trials_per_cell:tpc ~shard_size:size
        ~skip:(fun i -> completed.(i) <> None)
    in
    let slots = Shard.per_cell ~trials_per_cell:tpc ~shard_size:size in
    let t =
      {
        spec;
        cells;
        plan;
        completed;
        from_journal;
        writer;
        fault;
        registry;
        fold_span;
        shard_results = Array.init ncells (fun _ -> Array.make slots None);
        shards_done = Array.make ncells 0;
        shard_snaps = Array.map (fun _ -> Tel.Registry.Snapshot.empty) plan;
        resumed_cells;
        started;
        next_flush = 0;
        trials_done = resumed_cells * tpc;
        cells_done = resumed_cells;
      }
    in
    flush_prefix t;
    t

  let land_shard t pi agg snap =
    let sh = t.plan.(pi) in
    let ci = sh.Shard.cell_index in
    t.shard_snaps.(pi) <- snap;
    t.shard_results.(ci).(sh.Shard.slot) <- Some agg;
    t.shards_done.(ci) <- t.shards_done.(ci) + 1;
    t.trials_done <- t.trials_done + Shard.trials sh;
    let complete = t.shards_done.(ci) = Array.length t.shard_results.(ci) in
    if complete then begin
      (* Merge in slot order — never completion order. *)
      let merge () =
        Array.fold_left
          (fun acc slot ->
            match (acc, slot) with
            | None, Some a -> Some a
            | Some m, Some a -> Some (Aggregate.merge m a)
            | _, None -> assert false)
          None t.shard_results.(ci)
      in
      t.completed.(ci) <-
        (match t.fold_span with
        | None -> merge ()
        | Some sp -> Tel.Span.time sp merge);
      t.shard_results.(ci) <- [||];
      t.cells_done <- t.cells_done + 1;
      flush_prefix t
    end;
    complete

  let finish ?telemetry t ~jobs =
    close t;
    let results =
      Array.mapi
        (fun i cell ->
          match t.completed.(i) with
          | Some aggregate ->
            { cell; aggregate; from_journal = t.from_journal.(i) }
          | None -> assert false (* every shard has landed *))
        t.cells
    in
    (* The caller's registry first, then every fresh shard in plan order
       — never completion order — so the snapshot is deterministic. *)
    let snapshot =
      Option.map
        (fun reg ->
          Array.fold_left Tel.Registry.Snapshot.merge
            (Tel.Registry.snapshot reg) t.shard_snaps)
        t.registry
    in
    (match (telemetry, snapshot) with
    | Some dir, Some snap ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let write name text =
        let oc = open_out_bin (Filename.concat dir name) in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            output_string oc text)
      in
      write "telemetry.prom" (Tel.Export.prometheus snap);
      write "telemetry.jsonl"
        (Tel.Export.jsonl ~emitted_at:(Unix.gettimeofday ()) snap)
    | _ -> ());
    {
      spec = t.spec;
      cells = results;
      fresh_trials = Array.fold_left (fun n sh -> n + Shard.trials sh) 0 t.plan;
      resumed_cells = t.resumed_cells;
      jobs;
      elapsed = Unix.gettimeofday () -. t.started;
      telemetry = snapshot;
    }
end

let run ?jobs ?journal_path ?(resume = false) ?(retries = 2) ?fault
    ?(progress_interval = 0.) ?(progress_out = stderr) ?(log = default_log)
    ?telemetry ?(telemetry_clock = Unix.gettimeofday) spec =
  Spec.validate spec;
  let jobs =
    match jobs with
    | None -> Worker_pool.default_jobs ()
    | Some j ->
      if j < 1 then invalid_arg "Campaign.run: jobs must be >= 1";
      j
  in
  if retries < 0 then invalid_arg "Campaign.run: retries must be >= 0";
  let fault = Option.map Faultplan.arm fault in
  (* The coordinator's registry: journal latency and retry/salvage
     counters, fed only from under the pool mutex (or before/after the
     pool runs), so unsynchronized instruments are safe.  Worker domains
     never touch it — each shard records into its own registry. *)
  let tel =
    Option.map (fun _ -> Tel.Registry.create ~clock:telemetry_clock ()) telemetry
  in
  let c_retries =
    Option.map (fun r -> Tel.Registry.counter r "campaign_shard_retries_total") tel
  in
  let c_salvaged =
    Option.map (fun r -> Tel.Registry.counter r "campaign_shard_salvaged_total") tel
  in
  let fold = Fold.create ?registry:tel ?fault ?journal_path ~resume ~log spec in
  Fun.protect
    ~finally:(fun () -> Fold.close fold)
    (fun () ->
      let cells = Fold.cells fold in
      let progress =
        if progress_interval > 0. then
          Progress.create ~out:progress_out ~interval:progress_interval
            ~resumed_trials:(Fold.trials_done fold)
            ~total_trials:(Spec.trial_count spec) ()
        else Progress.silent ()
      in
      (* [live] is a running merge of shard snapshots, read only by the
         progress reporter's derived line (order there is harmless: it is
         a human-facing view, not an artifact). *)
      let live = ref Tel.Registry.Snapshot.empty in
      let progress_extra =
        Option.map (fun _ -> fun () -> shard_progress_view !live) tel
      in
      let pool_started = telemetry_clock () in
      let on_result task_index (agg, snap) =
        if Option.is_some tel then
          live := Tel.Registry.Snapshot.merge !live snap;
        ignore (Fold.land_shard fold task_index agg snap);
        Progress.note ?extra:progress_extra progress
          ~trials_done:(Fold.trials_done fold)
      in
      let task ~worker (sh : Shard.t) =
        Faultplan.wrap_task fault ~task:sh.Shard.id (fun () ->
            match tel with
            | None -> (run_shard spec cells sh, Tel.Registry.Snapshot.empty)
            | Some _ ->
              (* The shard's own registry: no cross-domain sharing, and
                 its contents (queue wait aside) depend only on the
                 shard, so plan-order merging stays deterministic. *)
              let sreg = Tel.Registry.create ~clock:telemetry_clock () in
              Tel.Span.record
                (Tel.Registry.span sreg "campaign_queue_wait_seconds")
                (Float.max 0. (telemetry_clock () -. pool_started));
              let sp =
                Tel.Registry.span sreg
                  ~labels:[ ("domain", string_of_int worker) ]
                  "campaign_shard_seconds"
              in
              let began = Tel.Span.start sp in
              let agg = run_shard ~telemetry:sreg spec cells sh in
              Tel.Span.stop sp began;
              (agg, Tel.Registry.snapshot sreg))
      in
      let on_retry ~task ~attempt e =
        Option.iter Tel.Counter.incr c_retries;
        log
          (Printf.sprintf
             "shard %d failed on attempt %d (%s); requeueing (%d %s left)"
             task attempt (Printexc.to_string e) (retries - attempt)
             (if retries - attempt = 1 then "retry" else "retries"))
      in
      let on_salvage ~task =
        Option.iter Tel.Counter.incr c_salvaged;
        log
          (Printf.sprintf
             "shard %d abandoned by a dead worker; recomputing on the main \
              domain"
             task)
      in
      ignore
        (Worker_pool.run ~jobs ~retries ~on_retry ~on_salvage ~on_result task
           (Fold.plan fold));
      Progress.finish ?extra:progress_extra progress
        ~trials_done:(Fold.trials_done fold);
      Fold.finish ?telemetry fold ~jobs)

let region (cell : Spec.cell) =
  if cell.Spec.nu <= 0. then "SAFE"
  else begin
    let c = Spec.c_of_cell cell in
    if c > Core.Bounds.neat_c_min ~nu:cell.Spec.nu then "SAFE"
    else if cell.Spec.nu > Core.Bounds.pss_attack_nu ~c then "ATTACK"
    else "GAP"
  end

let totals outcome =
  Array.fold_left
    (fun acc r -> Aggregate.merge acc r.aggregate)
    (Aggregate.create ()) outcome.cells

let summary_table outcome =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "campaign: %d cells x %d trials x %d rounds (seed %Ld, %d fresh \
            trials, %d resumed cells, %.1fs at %d jobs)"
           (Array.length outcome.cells) outcome.spec.Spec.trials_per_cell
           outcome.spec.Spec.rounds outcome.spec.Spec.seed
           outcome.fresh_trials outcome.resumed_cells outcome.elapsed
           outcome.jobs)
      ~columns:
        [ "cell"; "p"; "n"; "Delta"; "nu"; "c"; "viol"; "rate"; "95% lo";
          "95% hi"; "max reorg"; "growth"; "quality"; "region"; "agrees" ]
  in
  Array.iter
    (fun { cell; aggregate = a; _ } ->
      let reg = region cell in
      let audited = Aggregate.audited_trials a > 0 in
      let lo, hi =
        match Aggregate.wilson_interval a with
        | Some (lo, hi) -> (lo, hi)
        | None -> (nan, nan)
      in
      let agrees =
        if not audited then "-"
        else
          match reg with
          | "SAFE" -> if Aggregate.violations a = 0 then "yes" else "NO"
          | "ATTACK" -> if Aggregate.violations a > 0 then "yes" else "weak"
          | _ -> "-"
      in
      let mean_or_nan s =
        if Nakamoto_prob.Stats.Summary.count s = 0 then nan
        else Nakamoto_prob.Stats.Summary.mean s
      in
      Table.add_row t
        [
          Table.Int cell.Spec.index; Table.Sci cell.Spec.p;
          Table.Int cell.Spec.n; Table.Int cell.Spec.delta;
          Table.Float cell.Spec.nu; Table.Float (Spec.c_of_cell cell);
          Table.Text
            (Printf.sprintf "%d/%d" (Aggregate.violations a)
               (Aggregate.audited_trials a));
          Table.Float (Aggregate.violation_rate a); Table.Float lo;
          Table.Float hi; Table.Int (Aggregate.max_reorg_depth a);
          Table.Float (mean_or_nan (Aggregate.growth_summary a));
          Table.Float (mean_or_nan (Aggregate.quality_summary a));
          Table.Text reg; Table.Text agrees;
        ])
    outcome.cells;
  t
