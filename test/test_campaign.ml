open Helpers
module Campaign = Nakamoto_campaign
module Spec = Campaign.Spec
module Shard = Campaign.Shard
module Worker_pool = Campaign.Worker_pool
module Aggregate = Campaign.Aggregate
module Journal = Campaign.Journal
module Stats = Nakamoto_prob.Stats

(* A tiny full-protocol grid: 2 cells x 4 trials of 120 rounds each,
   small enough for the determinism and resume tests to rerun it several
   times. *)
let tiny_spec =
  {
    Spec.default with
    Spec.ps = [ 0.02 ];
    ns = [ 8 ];
    deltas = [ 2 ];
    nus = [ 0.1; 0.3 ];
    trials_per_cell = 4;
    rounds = 120;
    seed = 77L;
    shard_size = 1;
  }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let temp_journal tag =
  let path = Filename.temp_file ("campaign_" ^ tag) ".jsonl" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

(* --- Spec ---------------------------------------------------------- *)

let test_spec_cells_enumeration () =
  let spec =
    {
      tiny_spec with
      Spec.ps = [ 0.01; 0.02 ];
      deltas = [ 2; 4 ];
      nus = [ 0.1; 0.3 ];
    }
  in
  let cells = Spec.cells spec in
  check_int "cell count" 8 (Array.length cells);
  check_int "cell_count agrees" 8 (Spec.cell_count spec);
  check_int "trial_count" 32 (Spec.trial_count spec);
  Array.iteri
    (fun i (c : Spec.cell) -> check_int "indices are positions" i c.index)
    cells;
  (* Row-major: p outermost, nu innermost. *)
  check_true "first cell" (cells.(0).p = 0.01 && cells.(0).delta = 2 && cells.(0).nu = 0.1);
  check_true "nu varies fastest" (cells.(1).nu = 0.3 && cells.(1).delta = 2);
  check_true "then delta" (cells.(2).delta = 4 && cells.(2).p = 0.01);
  check_true "p varies slowest" (cells.(4).p = 0.02 && cells.(4).delta = 2 && cells.(4).nu = 0.1);
  close "c = 1/(p n Delta)"
    (1. /. (0.01 *. 8. *. 2.))
    (Spec.c_of_cell cells.(0))

let test_spec_validation () =
  Spec.validate tiny_spec;
  check_raises_invalid "empty axis" (fun () ->
      Spec.validate { tiny_spec with Spec.nus = [] });
  check_raises_invalid "bad p" (fun () ->
      Spec.validate { tiny_spec with Spec.ps = [ 0. ] });
  check_raises_invalid "nu >= 1/2" (fun () ->
      Spec.validate { tiny_spec with Spec.nus = [ 0.5 ] });
  check_raises_invalid "no trials" (fun () ->
      Spec.validate { tiny_spec with Spec.trials_per_cell = 0 });
  check_raises_invalid "bad shard size" (fun () ->
      Spec.validate { tiny_spec with Spec.shard_size = 0 });
  (* Every cell's configuration is vetted before any trial runs or any
     journal is opened: Balance's boundary 15 fits the 32 honest miners
     of n = 40 at nu = 0.2, not the 8 of n = 10, so the whole spec is
     refused and no journal is left behind. *)
  let unfit =
    {
      tiny_spec with
      Spec.ns = [ 10; 40 ];
      nus = [ 0.2 ];
      strategy = Nakamoto_sim.Adversary.Balance { group_boundary = 15 };
    }
  in
  Spec.validate { unfit with Spec.ns = [ 40 ] };
  (match Spec.validate unfit with
  | () -> Alcotest.fail "a cell the strategy cannot fit must be refused"
  | exception Invalid_argument m ->
    check_true ("names the boundary: " ^ m)
      (contains_substring ~affix:"group_boundary" m));
  let journal = temp_journal "unfit" in
  check_raises_invalid "Campaign.run refuses it" (fun () ->
      ignore
        (Campaign.Campaign.run ~jobs:1 ~journal_path:journal ~log:ignore
           unfit));
  check_false "no journal opened" (Sys.file_exists journal);
  cleanup journal;
  (* State mode runs no strategy, and every mining mode runs Balance. *)
  Spec.validate { unfit with Spec.mode = Spec.State_process };
  Spec.validate
    { unfit with Spec.ns = [ 40 ]; mining_mode = Nakamoto_sim.Config.Skip }

let test_spec_fingerprint () =
  let fp = Spec.fingerprint tiny_spec in
  check_true "stable" (Int64.equal fp (Spec.fingerprint tiny_spec));
  let differs s = not (Int64.equal fp (Spec.fingerprint s)) in
  check_true "seed matters" (differs { tiny_spec with Spec.seed = 78L });
  check_true "trials matter"
    (differs { tiny_spec with Spec.trials_per_cell = 5 });
  check_true "axis matters" (differs { tiny_spec with Spec.nus = [ 0.1 ] });
  check_true "strategy matters"
    (differs { tiny_spec with Spec.strategy = Nakamoto_sim.Adversary.Idle })

(* --- Shard plan ---------------------------------------------------- *)

let test_shard_plan () =
  check_int "ceil division" 3 (Shard.per_cell ~trials_per_cell:5 ~shard_size:2);
  let plan =
    Shard.plan ~cells:3 ~trials_per_cell:5 ~shard_size:2 ~skip:(fun _ -> false)
  in
  check_int "shards" 9 (Array.length plan);
  Array.iteri (fun i (s : Shard.t) -> check_int "plan ids" i s.id) plan;
  (* Within a cell: contiguous trial ranges covering [0, 5). *)
  let covered = Array.make 5 false in
  Array.iter
    (fun (s : Shard.t) ->
      if s.cell_index = 1 then
        for t = s.trial_start to s.trial_stop - 1 do
          check_false "no trial twice" covered.(t);
          covered.(t) <- true
        done)
    plan;
  Array.iter (fun c -> check_true "all trials covered" c) covered;
  check_int "last shard is the remainder" 1
    (Shard.trials plan.(Array.length plan - 1));
  (* skip excises cells without renumbering the survivors. *)
  let resumed =
    Shard.plan ~cells:3 ~trials_per_cell:5 ~shard_size:2 ~skip:(fun i -> i = 1)
  in
  check_int "skipped cell's shards gone" 6 (Array.length resumed);
  Array.iter
    (fun (s : Shard.t) ->
      check_true "cell 1 excised" (s.cell_index <> 1))
    resumed;
  check_raises_invalid "bad shard size" (fun () ->
      ignore (Shard.plan ~cells:1 ~trials_per_cell:1 ~shard_size:0 ~skip:(fun _ -> false)))

(* --- Worker pool --------------------------------------------------- *)

let test_worker_pool_order_and_draining () =
  check_int "empty input" 0
    (Array.length (Worker_pool.run ~jobs:4 (fun ~worker:_ x -> x) [||]));
  let tasks = Array.init 23 (fun i -> i) in
  let seen = ref 0 in
  let workers_seen = ref [] in
  let results =
    Worker_pool.run ~jobs:4
      ~on_result:(fun _ _ -> incr seen)
      (fun ~worker i ->
        if not (List.mem worker !workers_seen) then
          workers_seen := worker :: !workers_seen;
        i * i)
      tasks
  in
  check_int "on_result once per task" 23 !seen;
  Array.iteri (fun i r -> check_int "results in task order" (i * i) r) results;
  check_true "worker indices stay within [0, jobs)"
    (List.for_all (fun w -> w >= 0 && w < 4) !workers_seen);
  (* More workers than tasks: pool clamps and still drains. *)
  let one = Worker_pool.run ~jobs:16 (fun ~worker:_ i -> i + 1) [| 41 |] in
  check_int "jobs > tasks" 42 one.(0);
  check_raises_invalid "jobs < 1" (fun () ->
      ignore (Worker_pool.run ~jobs:0 (fun ~worker:_ x -> x) [| 1 |]))

let test_worker_pool_exception_propagates () =
  match
    Worker_pool.run ~jobs:3
      (fun ~worker:_ i -> if i = 5 then failwith "task 5 exploded" else i)
      (Array.init 12 (fun i -> i))
  with
  | exception Failure msg -> check_true "first failure re-raised" (msg = "task 5 exploded")
  | _ -> Alcotest.fail "expected the task exception to propagate"

let test_worker_pool_retries_requeue () =
  (* Task 5 fails on its first two attempts; a retry budget of 2 gives it
     three attempts total, so the pool must still drain every slot. *)
  let attempts = Atomic.make 0 in
  let retried = ref [] in
  let results =
    Worker_pool.run ~jobs:3 ~retries:2
      ~on_retry:(fun ~task ~attempt _e -> retried := (task, attempt) :: !retried)
      (fun ~worker:_ i ->
        if i = 5 && Atomic.fetch_and_add attempts 1 < 2 then
          failwith "flaky shard"
        else i * 10)
      (Array.init 8 (fun i -> i))
  in
  Array.iteri (fun i r -> check_int "every slot drained" (i * 10) r) results;
  check_true "both failures reported to on_retry"
    (List.sort compare !retried = [ (5, 1); (5, 2) ]);
  (* The same flake with retries:1 exhausts the budget and re-raises. *)
  let attempts = Atomic.make 0 in
  match
    Worker_pool.run ~jobs:3 ~retries:1
      (fun ~worker:_ i ->
        if i = 5 && Atomic.fetch_and_add attempts 1 < 2 then
          failwith "flaky shard"
        else i)
      (Array.init 8 (fun i -> i))
  with
  | exception Failure msg -> check_true "budget exhausted" (msg = "flaky shard")
  | _ -> Alcotest.fail "expected the exhausted retry budget to re-raise"

let test_worker_pool_retry_determinism () =
  (* A retried task runs the same pure function on the same input, so a
     pool with flakes returns exactly what a clean pool returns. *)
  let clean =
    Worker_pool.run ~jobs:4 (fun ~worker:_ i -> i * i)
      (Array.init 20 (fun i -> i))
  in
  let tries = Array.init 20 (fun _ -> Atomic.make 0) in
  let flaky =
    Worker_pool.run ~jobs:4 ~retries:1
      (fun ~worker:_ i ->
        (* Every third task fails its first attempt, everywhere at once. *)
        if Atomic.fetch_and_add tries.(i) 1 = 0 && i mod 3 = 0 then
          failwith "chaos"
        else i * i)
      (Array.init 20 (fun i -> i))
  in
  check_true "flaky pool converges to the clean result" (clean = flaky)

(* --- Aggregate ----------------------------------------------------- *)

let obs ?(violated = false) ?(depth = 0) growth quality =
  {
    Aggregate.rounds = 100;
    convergence_opportunities = 7;
    adversary_blocks = 2;
    honest_blocks = 11;
    h_rounds = 20;
    h1_rounds = 15;
    full = true;
    violated;
    max_reorg_depth = depth;
    growth_rate = growth;
    chain_quality = quality;
  }

let test_aggregate_closed_form () =
  let t = Aggregate.create () in
  List.iter (Aggregate.observe t)
    [
      obs ~violated:true ~depth:3 0.10 0.9;
      obs 0.20 0.8;
      obs ~violated:true ~depth:40 0.30 0.7;
      obs 0.40 0.6;
    ];
  check_int "trials" 4 (Aggregate.trials t);
  check_int "rounds pooled" 400 (Aggregate.total_rounds t);
  check_int "violations" 2 (Aggregate.violations t);
  close "violation rate" 0.5 (Aggregate.violation_rate t);
  close "convergence rate" (28. /. 400.) (Aggregate.convergence_rate t);
  (* Welford matches the closed form on the fixed data. *)
  let g = Aggregate.growth_summary t in
  close "mean" 0.25 (Stats.Summary.mean g);
  close "sample variance" (0.05 /. 3.) (Stats.Summary.variance g);
  (* Wilson interval is exactly the library's closed form. *)
  (match Aggregate.wilson_interval t with
  | None -> Alcotest.fail "expected an interval"
  | Some (lo, hi) ->
    let elo, ehi = Stats.wilson_interval ~hits:2 ~trials:4 in
    check_true "wilson = closed form" (lo = elo && hi = ehi));
  (* Histogram: depth 40 saturates into the last bin. *)
  let hist = Aggregate.reorg_histogram t in
  check_int "hist length" Aggregate.hist_depths (Array.length hist);
  check_int "depth 0 bin" 2 hist.(0);
  check_int "depth 3 bin" 1 hist.(3);
  check_int "saturating bin" 1 hist.(Aggregate.hist_depths - 1);
  check_int "max depth kept exact" 40 (Aggregate.max_reorg_depth t);
  (* Nothing audited -> rate is nan, interval absent. *)
  let empty = Aggregate.create () in
  check_true "nan when unaudited" (Float.is_nan (Aggregate.violation_rate empty));
  check_true "no interval when unaudited" (Aggregate.wilson_interval empty = None)

let test_aggregate_merge_and_snapshot () =
  let all = Aggregate.create () and a = Aggregate.create () and b = Aggregate.create () in
  let stream =
    [
      obs ~depth:1 0.11 0.91; obs 0.22 0.82; obs ~violated:true ~depth:5 0.33 0.73;
      obs 0.44 0.64; obs ~depth:2 0.55 0.55;
    ]
  in
  List.iteri
    (fun i o ->
      Aggregate.observe all o;
      Aggregate.observe (if i < 2 then a else b) o)
    stream;
  let merged = Aggregate.merge a b in
  (* Integer tallies merge exactly.  The Welford floats combine by the
     parallel-merge formula, which is algebraically but not bitwise equal
     to one sequential stream — cross-jobs bit-identity instead comes
     from the campaign always merging the same shard tree. *)
  let ints (s : Aggregate.snapshot) =
    ( s.Aggregate.s_trials, s.Aggregate.s_total_rounds,
      s.Aggregate.s_audited_trials, s.Aggregate.s_violations,
      s.Aggregate.s_convergence_opportunities, s.Aggregate.s_h_rounds,
      s.Aggregate.s_max_reorg_depth, s.Aggregate.s_reorg_hist )
  in
  check_true "integer tallies merge exactly"
    (ints (Aggregate.snapshot merged) = ints (Aggregate.snapshot all));
  close "merged mean = sequential mean"
    (Stats.Summary.mean (Aggregate.growth_summary all))
    (Stats.Summary.mean (Aggregate.growth_summary merged));
  close "merged variance = sequential variance"
    (Stats.Summary.variance (Aggregate.growth_summary all))
    (Stats.Summary.variance (Aggregate.growth_summary merged));
  let snap = Aggregate.snapshot all in
  check_true "snapshot round-trips bit-identically"
    (compare (Aggregate.snapshot (Aggregate.of_snapshot snap)) snap = 0);
  check_raises_invalid "short histogram rejected" (fun () ->
      ignore (Aggregate.of_snapshot { snap with Aggregate.s_reorg_hist = [| 0 |] }));
  check_raises_invalid "negative count rejected" (fun () ->
      ignore (Aggregate.of_snapshot { snap with Aggregate.s_trials = -1 }))

(* --- Journal ------------------------------------------------------- *)

let test_journal_round_trip () =
  let header = Journal.header_of_spec tiny_spec in
  check_true "header fingerprint" (Int64.equal header.Journal.fingerprint (Spec.fingerprint tiny_spec));
  let parsed = Journal.parse (Journal.render (Journal.Header header)) in
  check_true "header round-trips" (compare parsed (Journal.Header header) = 0);
  let t = Aggregate.create () in
  List.iter (Aggregate.observe t)
    [ obs ~violated:true ~depth:2 0.125 0.875; obs (1. /. 3.) 0.5 ];
  let cell = (Spec.cells tiny_spec).(1) in
  let line = Journal.Cell (cell, Aggregate.snapshot t) in
  check_true "cell line round-trips (17g floats, int64 strings)"
    (compare (Journal.parse (Journal.render line)) line = 0);
  (match Journal.parse (Journal.render line) with
  | Journal.Cell (c, s) ->
    check_int "cell index survives" cell.Spec.index c.Spec.index;
    check_int "welford count survives" 2 s.Aggregate.s_growth.Stats.Summary.n
  | Journal.Header _ -> Alcotest.fail "expected a cell line");
  check_true "load on a missing path is No_file"
    (Journal.load ~path:"/nonexistent/campaign.jsonl" = Journal.No_file);
  (match Journal.parse "{\"oops\": tru" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed line should fail")

(* --- Journal: writer + torn-tail classification -------------------- *)

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A complete well-formed journal (header + 2 cells) rendered through
   the writer, for the tear tests to mutilate. *)
let render_tiny_journal path =
  let w = Journal.create_writer ~path ~fresh:true () in
  Journal.append w (Journal.Header (Journal.header_of_spec tiny_spec));
  let t = Aggregate.create () in
  List.iter (Aggregate.observe t) [ obs 0.125 0.875; obs 0.25 0.75 ];
  Array.iter
    (fun cell -> Journal.append w (Journal.Cell (cell, Aggregate.snapshot t)))
    (Spec.cells tiny_spec);
  Journal.close_writer w

let test_journal_writer_round_trip () =
  let path = temp_journal "writer" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      render_tiny_journal path;
      match Journal.load ~path with
      | Journal.Loaded { l_header; entries; torn } ->
        check_true "fingerprint survives"
          (Int64.equal l_header.Journal.fingerprint (Spec.fingerprint tiny_spec));
        check_int "both cells load" 2 (List.length entries);
        check_true "clean file has no torn tail" (torn = None);
        (* Reopening in append mode and closing changes nothing. *)
        let before = read_file path in
        Journal.close_writer (Journal.create_writer ~path ~fresh:false ());
        check_true "append-mode open is byte-preserving" (read_file path = before)
      | _ -> Alcotest.fail "expected Loaded")

let test_journal_torn_tail_detected_and_repaired () =
  let path = temp_journal "torn" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      render_tiny_journal path;
      let whole = read_file path in
      (* Tear the last line in half: SIGKILL mid-append. *)
      let tail_start = 1 + String.rindex_from whole (String.length whole - 2) '\n' in
      let torn_len = (String.length whole - tail_start) / 2 in
      write_raw path (String.sub whole 0 (tail_start + torn_len));
      (match Journal.load ~path with
      | Journal.Loaded { entries; torn = Some t; _ } ->
        check_int "intact prefix survives the tear" 1 (List.length entries);
        check_int "valid_bytes = offset of the torn line" tail_start t.Journal.valid_bytes;
        check_int "dropped_bytes = the partial tail" torn_len t.Journal.dropped_bytes;
        Journal.repair ~path t;
        check_true "repair truncates to the valid prefix"
          (read_file path = String.sub whole 0 tail_start);
        (match Journal.load ~path with
        | Journal.Loaded { entries; torn = None; _ } ->
          check_int "repaired file loads cleanly" 1 (List.length entries)
        | _ -> Alcotest.fail "repaired journal should load with no torn tail")
      | _ -> Alcotest.fail "expected Loaded with a torn tail");
      (* A final line that parses but lacks its newline is also torn:
         the append was cut between the payload and the terminator. *)
      write_raw path (String.sub whole 0 (String.length whole - 1));
      (match Journal.load ~path with
      | Journal.Loaded { entries; torn = Some t; _ } ->
        check_int "unterminated-but-parseable tail is torn" 1 (List.length entries);
        check_int "tail measured to the last newline" tail_start t.Journal.valid_bytes
      | _ -> Alcotest.fail "expected a torn tail for a missing newline"))

let test_journal_unusable_and_fatal_shapes () =
  let path = temp_journal "shapes" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      render_tiny_journal path;
      let whole = read_file path in
      let lines = String.split_on_char '\n' whole in
      let header = List.nth lines 0 and cell0 = List.nth lines 1 in
      (* Empty file: unusable, not fatal — resume starts fresh. *)
      write_raw path "";
      (match Journal.load ~path with
      | Journal.Unusable _ -> ()
      | _ -> Alcotest.fail "empty file should be Unusable");
      (* Torn header (no newline yet): nothing recoverable either. *)
      write_raw path (String.sub header 0 (String.length header / 2));
      (match Journal.load ~path with
      | Journal.Unusable _ -> ()
      | _ -> Alcotest.fail "torn header should be Unusable");
      (* Duplicate header mid-file: real corruption, must stay fatal. *)
      write_raw path (header ^ "\n" ^ cell0 ^ "\n" ^ header ^ "\n");
      (match Journal.load ~path with
      | exception Failure msg ->
        check_true "duplicate header named"
          (contains_substring ~affix:"duplicate header" msg)
      | _ -> Alcotest.fail "duplicate header should be fatal");
      (* Malformed line *before* the tail: fatal, not a torn tail. *)
      write_raw path (header ^ "\n{\"oops\": tru\n" ^ cell0 ^ "\n");
      (match Journal.load ~path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "mid-file damage should be fatal");
      (* A journal that starts with a cell line never had a header. *)
      write_raw path (cell0 ^ "\n");
      match Journal.load ~path with
      | exception Failure msg ->
        check_true "missing header named"
          (contains_substring ~affix:"header" msg)
      | _ -> Alcotest.fail "cell-first journal should be fatal")

(* --- Progress ------------------------------------------------------ *)

let test_progress_resume_rate_and_eta () =
  let module Progress = Campaign.Progress in
  (* 100 resumed + 900 fresh; 10s in, 100 fresh done.  The rate must
     count only the fresh 100, not the journal's 100 freebies. *)
  let p = Progress.create ~interval:0. ~resumed_trials:100 ~total_trials:1000 () in
  let now = Progress.started p +. 10. in
  close "rate excludes resumed trials" 10. (Progress.rate p ~trials_done:200 ~now);
  (* 800 remaining at 10/s. *)
  close "eta from the fresh rate" 80. (Progress.eta p ~trials_done:200 ~now);
  check_true "eta is 0 when done" (Progress.eta p ~trials_done:1000 ~now = 0.);
  (* No fresh work yet: the rate is 0 and the ETA honestly unknown. *)
  check_true "rate is 0 before any fresh trial"
    (Progress.rate p ~trials_done:100 ~now = 0.);
  check_true "eta is infinite at rate 0"
    (Progress.eta p ~trials_done:100 ~now = Float.infinity);
  (* Without the fix the old reporter divided 200 trials by 10s: 20/s. *)
  let skewed = float_of_int 200 /. 10. in
  check_true "regression: resumed trials no longer inflate the rate"
    (Progress.rate p ~trials_done:200 ~now < skewed);
  check_raises_invalid "resumed > total rejected" (fun () ->
      ignore (Progress.create ~resumed_trials:2 ~total_trials:1 ()))

let test_progress_silent_is_fresh () =
  let module Progress = Campaign.Progress in
  (* Each silent reporter owns its clock: two created at different times
     must not share state (the old [silent] was one global record). *)
  let a = Progress.silent () in
  Unix.sleepf 0.02;
  let b = Progress.silent () in
  check_true "distinct silent reporters have distinct clocks"
    (Progress.started b > Progress.started a);
  (* Silent reporters never print, whatever is thrown at them. *)
  Progress.note a ~trials_done:5;
  Progress.finish a ~trials_done:5

(* --- Campaign: determinism, resume, draining ----------------------- *)

let outcome_snapshots (o : Campaign.Campaign.outcome) =
  Array.map
    (fun (r : Campaign.Campaign.cell_result) ->
      Aggregate.snapshot r.Campaign.Campaign.aggregate)
    o.Campaign.Campaign.cells

let test_jobs_determinism () =
  let j1 = temp_journal "j1" and j4 = temp_journal "j4" in
  Fun.protect
    ~finally:(fun () -> cleanup j1; cleanup j4)
    (fun () ->
      let o1 = Campaign.Campaign.run ~jobs:1 ~journal_path:j1 tiny_spec in
      let o4 = Campaign.Campaign.run ~jobs:4 ~journal_path:j4 tiny_spec in
      check_true "aggregates bit-identical across jobs"
        (compare (outcome_snapshots o1) (outcome_snapshots o4) = 0);
      check_true "journal files byte-identical across jobs"
        (read_file j1 = read_file j4);
      check_int "all trials fresh" (Spec.trial_count tiny_spec)
        o1.Campaign.Campaign.fresh_trials;
      (* Trial RNG is addressed by (seed, cell, trial): a different master
         seed shifts every stream. *)
      let o' = Campaign.Campaign.run ~jobs:1 { tiny_spec with Spec.seed = 78L } in
      check_true "seed changes results"
        (compare (outcome_snapshots o1) (outcome_snapshots o') <> 0))

let test_resume_skips_completed_cells () =
  let full = temp_journal "full" and part = temp_journal "part" in
  Fun.protect
    ~finally:(fun () -> cleanup full; cleanup part)
    (fun () ->
      let o = Campaign.Campaign.run ~jobs:2 ~journal_path:full tiny_spec in
      check_int "two cells" 2 (Array.length o.Campaign.Campaign.cells);
      (* Simulate a crash after the first cell was flushed: keep the
         header and the first cell line only. *)
      let lines = String.split_on_char '\n' (read_file full) in
      let oc = open_out_bin part in
      output_string oc (List.nth lines 0);
      output_char oc '\n';
      output_string oc (List.nth lines 1);
      output_char oc '\n';
      close_out oc;
      let r =
        Campaign.Campaign.run ~jobs:2 ~journal_path:part ~resume:true
          ~log:ignore tiny_spec
      in
      check_int "one cell recovered" 1 r.Campaign.Campaign.resumed_cells;
      check_int "only the missing cell recomputed"
        tiny_spec.Spec.trials_per_cell r.Campaign.Campaign.fresh_trials;
      check_true "cell 0 came from the journal"
        r.Campaign.Campaign.cells.(0).Campaign.Campaign.from_journal;
      check_false "cell 1 was recomputed"
        r.Campaign.Campaign.cells.(1).Campaign.Campaign.from_journal;
      check_true "resumed outcome equals the uninterrupted one"
        (compare (outcome_snapshots r) (outcome_snapshots o) = 0);
      check_true "completed journal byte-identical to uninterrupted"
        (read_file part = read_file full);
      (* Resuming a complete journal computes nothing. *)
      let done_ =
        Campaign.Campaign.run ~jobs:2 ~journal_path:full ~resume:true
          ~log:ignore tiny_spec
      in
      check_int "nothing left to do" 0 done_.Campaign.Campaign.fresh_trials;
      check_int "both cells recovered" 2 done_.Campaign.Campaign.resumed_cells)

let test_resume_repairs_torn_tail () =
  let full = temp_journal "tfull" and torn = temp_journal "ttorn" in
  Fun.protect
    ~finally:(fun () -> cleanup full; cleanup torn)
    (fun () ->
      let o = Campaign.Campaign.run ~jobs:2 ~journal_path:full tiny_spec in
      let whole = read_file full in
      (* SIGKILL mid-append of the last cell: the journal ends in a
         partial line.  Before the fix this bricked --resume with
         [Failure "journal line ..."].  *)
      let tail_start = 1 + String.rindex_from whole (String.length whole - 2) '\n' in
      let cut = tail_start + ((String.length whole - tail_start) / 2) in
      write_raw torn (String.sub whole 0 cut);
      let logged = ref [] in
      let r =
        Campaign.Campaign.run ~jobs:2 ~journal_path:torn ~resume:true
          ~log:(fun m -> logged := m :: !logged)
          tiny_spec
      in
      check_true "the repair was logged, not fatal"
        (List.exists (contains_substring ~affix:"torn tail") !logged);
      check_int "only the torn cell recomputed" tiny_spec.Spec.trials_per_cell
        r.Campaign.Campaign.fresh_trials;
      check_true "resumed outcome equals the uninterrupted one"
        (compare (outcome_snapshots r) (outcome_snapshots o) = 0);
      check_true "repaired journal byte-identical to uninterrupted"
        (read_file torn = whole);
      (* An empty journal file (killed before the header append finished
         its write) resumes as a fresh run, with a logged warning. *)
      write_raw torn "";
      let logged = ref [] in
      let r2 =
        Campaign.Campaign.run ~jobs:2 ~journal_path:torn ~resume:true
          ~log:(fun m -> logged := m :: !logged)
          tiny_spec
      in
      check_true "unusable journal logged"
        (List.exists (contains_substring ~affix:"no usable state") !logged);
      check_int "everything recomputed" (Spec.trial_count tiny_spec)
        r2.Campaign.Campaign.fresh_trials;
      check_true "rebuilt journal byte-identical" (read_file torn = whole))

let test_resume_rejects_other_spec () =
  let path = temp_journal "fp" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      ignore (Campaign.Campaign.run ~jobs:1 ~journal_path:path tiny_spec);
      check_raises_invalid "fingerprint mismatch" (fun () ->
          ignore
            (Campaign.Campaign.run ~jobs:1 ~journal_path:path ~resume:true
               { tiny_spec with Spec.trials_per_cell = 8 })))

let test_single_cell_grid_drains () =
  (* One cell, more workers than shards: the pool must clamp and drain. *)
  let spec =
    { tiny_spec with Spec.nus = [ 0.25 ]; trials_per_cell = 3; shard_size = 2 }
  in
  let o = Campaign.Campaign.run ~jobs:8 spec in
  check_int "one cell" 1 (Array.length o.Campaign.Campaign.cells);
  check_int "fresh trials" 3 o.Campaign.Campaign.fresh_trials;
  let agg = o.Campaign.Campaign.cells.(0).Campaign.Campaign.aggregate in
  check_int "all trials aggregated" 3 (Aggregate.trials agg);
  check_int "rounds pooled" (3 * spec.Spec.rounds) (Aggregate.total_rounds agg);
  check_true "audited" (Aggregate.audited_trials agg = 3)

let test_state_mode_matches_direct_runs () =
  (* The campaign in State_process mode pools exactly the counts of the
     manually-run trials with the same (seed, cell, trial) streams. *)
  let spec =
    {
      tiny_spec with
      Spec.mode = Spec.State_process;
      nus = [ 0.2 ];
      trials_per_cell = 3;
      rounds = 500;
    }
  in
  let o = Campaign.Campaign.run ~jobs:2 spec in
  let agg = o.Campaign.Campaign.cells.(0).Campaign.Campaign.aggregate in
  let cell = (Spec.cells spec).(0) in
  let expect = ref 0 in
  for trial = 0 to 2 do
    let rng = Spec.trial_rng spec cell ~trial in
    let r =
      Nakamoto_sim.State_process.run ~rng
        (Spec.state_config_of_cell cell)
        ~rounds:spec.Spec.rounds
    in
    expect := !expect + r.Nakamoto_sim.State_process.convergence_opportunities
  done;
  check_int "pooled C matches per-trial streams" !expect
    (Aggregate.convergence_opportunities agg)

let test_region_verdicts () =
  let cell ~p ~n ~delta ~nu = { Spec.index = 0; p; n; delta; nu } in
  (* Large c, tiny nu: comfortably past the neat bound. *)
  check_true "safe region"
    (Campaign.Campaign.region (cell ~p:0.001 ~n:10 ~delta:2 ~nu:0.01) = "SAFE");
  (* c < 1 with a strong adversary: PSS attack applies. *)
  check_true "attack region"
    (Campaign.Campaign.region (cell ~p:0.05 ~n:40 ~delta:4 ~nu:0.45) = "ATTACK")

(* --- canonical spec JSON (the wire / journal / fingerprint codec) --- *)

let test_spec_json_round_trip () =
  let variants =
    [
      tiny_spec;
      Spec.default;
      { tiny_spec with Spec.mode = Spec.State_process; seed = Int64.min_int };
      {
        tiny_spec with
        Spec.strategy = Nakamoto_sim.Adversary.Idle;
        nus = [ 0.; 0.25 ];
      };
      {
        tiny_spec with
        Spec.strategy = Nakamoto_sim.Adversary.Balance { group_boundary = 7 };
      };
      { tiny_spec with Spec.strategy = Nakamoto_sim.Adversary.Selfish_mining };
    ]
  in
  List.iter
    (fun spec ->
      let json = Spec.to_json spec in
      match Spec.of_json json with
      | Error e -> Alcotest.failf "of_json rejected its own output: %s" e
      | Ok spec' ->
        Alcotest.(check string) "canonical bytes stable" json
          (Spec.to_json spec');
        check_true "fingerprint stable"
          (Spec.fingerprint spec = Spec.fingerprint spec'))
    variants;
  (* Whitespace-insensitive on input, canonical on output. *)
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> Alcotest.failf "expected %S in the canonical json" sub
    | Some i ->
      String.sub s 0 i ^ by
      ^ String.sub s (i + n) (String.length s - i - n)
  in
  let json = Spec.to_json tiny_spec in
  (match Spec.of_json (replace ~sub:"," ~by:" ,\n " json) with
  | Ok spec' ->
    Alcotest.(check string) "whitespace tolerated" json (Spec.to_json spec')
  | Error e -> Alcotest.failf "whitespace variant rejected: %s" e);
  (match Spec.of_json "{" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed json must be rejected");
  (match Spec.of_json "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields must be rejected");
  match Spec.of_json (replace ~sub:"\"full\"" ~by:"\"woo\"" json) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mode must be rejected"

let test_journal_fold_resume () =
  let path = temp_journal "fold" in
  let messages = ref [] in
  let log m = messages := m :: !messages in
  (* No file yet: Fresh None, nothing logged. *)
  (match
     Journal.fold ~log ~path ~fingerprint:(Spec.fingerprint tiny_spec)
       ~init:0
       (fun acc _ _ -> acc + 1)
   with
  | Journal.Fresh None -> ()
  | _ -> Alcotest.fail "no file must fold to Fresh None");
  (* A journal with two cells folds them in file order. *)
  let outcome =
    Campaign.Campaign.run ~jobs:1 ~journal_path:path ~log:(fun _ -> ())
      tiny_spec
  in
  (match
     Journal.fold ~log ~path ~fingerprint:(Spec.fingerprint tiny_spec)
       ~init:[]
       (fun acc (cell : Spec.cell) _ -> cell.Spec.index :: acc)
   with
  | Journal.Recovered { acc; entries } ->
    check_int "both cells folded" 2 entries;
    check_true "file order" (List.rev acc = [ 0; 1 ])
  | Journal.Fresh _ -> Alcotest.fail "a complete journal must recover");
  ignore outcome;
  (* Fingerprint mismatch is loud and names the path. *)
  (match
     Journal.fold ~log ~path ~fingerprint:1L ~init:() (fun () _ _ -> ())
   with
  | exception Invalid_argument m ->
    check_true "mismatch names the journal path"
      (contains_substring ~affix:path m)
  | _ -> Alcotest.fail "fingerprint mismatch must raise");
  (* A torn tail is repaired in place, with a logged line naming the
     path, and the torn cell simply drops out of the fold. *)
  let whole = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub whole 0 (String.length whole - 7));
  close_out oc;
  messages := [];
  (match
     Journal.fold ~log ~path ~fingerprint:(Spec.fingerprint tiny_spec)
       ~init:0
       (fun acc _ _ -> acc + 1)
   with
  | Journal.Recovered { acc; entries } ->
    check_int "torn final cell dropped" 1 entries;
    check_int "acc matches entries" 1 acc;
    check_true "repair logged with the path"
      (List.exists
         (fun m ->
           contains_substring ~affix:"repaired torn tail" m
           && contains_substring ~affix:path m)
         !messages)
  | Journal.Fresh _ -> Alcotest.fail "torn tail must still recover");
  (* An unusable file (no complete header) folds Fresh with the reason. *)
  let oc = open_out_bin path in
  output_string oc "{\"v\":1";
  close_out oc;
  messages := [];
  (match
     Journal.fold ~log ~path ~fingerprint:(Spec.fingerprint tiny_spec)
       ~init:() (fun () _ _ -> ())
   with
  | Journal.Fresh (Some _) ->
    check_true "unusable logged with the path"
      (List.exists (fun m -> contains_substring ~affix:path m) !messages)
  | _ -> Alcotest.fail "a header-less file must fold Fresh (Some reason)");
  cleanup path

(* --- Fold: plan-order telemetry ------------------------------------ *)

module Tel = Nakamoto_telemetry
module Snapshot = Tel.Registry.Snapshot
module Fold = Campaign.Campaign.Fold

(* A clock that advances by irregular, geometrically growing steps:
   spans record durations at many magnitudes with full mantissas, so
   their float sums depend on the order they are added in. *)
let irregular_clock seed =
  let st = Random.State.make [| seed |] in
  let now = ref 1e-3 in
  fun () ->
    now := !now *. (1. +. Random.State.float st 0.002);
    !now

(* One shard as a worker runs it: a private registry with the shard span
   under a domain label, the queue wait, and the executor's [sim_*]
   instruments. *)
let shard_with_snapshot ~clock spec cells (sh : Shard.t) =
  let sreg = Tel.Registry.create ~clock () in
  Tel.Span.record
    (Tel.Registry.span sreg "campaign_queue_wait_seconds")
    (clock ());
  let sp =
    Tel.Registry.span sreg
      ~labels:[ ("domain", string_of_int (sh.Shard.id mod 3)) ]
      "campaign_shard_seconds"
  in
  let began = Tel.Span.start sp in
  let agg = Campaign.Campaign.run_shard ~telemetry:sreg spec cells sh in
  Tel.Span.stop sp began;
  (agg, Tel.Registry.snapshot sreg)

let snapshot_bits snap =
  let hist (h : Tel.Histogram.snapshot) =
    ( Array.to_list h.Tel.Histogram.s_counts,
      h.Tel.Histogram.s_count,
      List.map Int64.bits_of_float
        [ h.Tel.Histogram.s_sum; h.Tel.Histogram.s_min; h.Tel.Histogram.s_max ]
    )
  in
  List.map
    (fun ((k : Snapshot.key), v) ->
      ( (k.Snapshot.name, k.Snapshot.labels),
        match v with
        | Snapshot.Counter c -> ([ c ], 0, [])
        | Snapshot.Histogram h | Snapshot.Span h -> hist h ))
    (Snapshot.entries snap)

let key_set snap =
  List.map
    (fun ((k : Snapshot.key), _) -> (k.Snapshot.name, k.Snapshot.labels))
    (Snapshot.entries snap)

(* The exported snapshot is the batch merge — the caller's registry,
   then every shard in plan order — bit for bit, whatever order the
   shards land in, with real-valued span sums. *)
let test_fold_telemetry_matches_batch_merge () =
  let spec =
    { tiny_spec with Spec.nus = [ 0.1; 0.2; 0.3 ]; trials_per_cell = 5;
      rounds = 60 }
  in
  let journal = temp_journal "fold_tel" in
  Fun.protect
    ~finally:(fun () -> cleanup journal)
    (fun () ->
      let reg = Tel.Registry.create ~clock:(irregular_clock 11) () in
      let fold =
        Fold.create ~registry:reg ~journal_path:journal ~resume:false
          ~log:ignore spec
      in
      let retries = Tel.Registry.counter reg "campaign_shard_retries_total" in
      let plan = Fold.plan fold in
      let clock = irregular_clock 23 in
      let results =
        Array.map (shard_with_snapshot ~clock spec (Fold.cells fold)) plan
      in
      let snaps = Array.map snd results in
      let order = Array.init (Array.length plan) Fun.id in
      let st = Random.State.make [| 5 |] in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      check_true "landing order is shuffled" (order.(0) <> 0);
      Array.iteri
        (fun k pi ->
          if k mod 4 = 0 then Tel.Counter.incr retries;
          let agg, snap = results.(pi) in
          ignore (Fold.land_shard fold pi agg snap))
        order;
      let outcome = Fold.finish fold ~jobs:1 in
      let streamed =
        match outcome.Campaign.Campaign.telemetry with
        | Some s -> s
        | None -> Alcotest.fail "a fold with a registry exports a snapshot"
      in
      let base = Tel.Registry.snapshot reg in
      let shard_keys =
        List.sort_uniq compare
          (List.concat_map key_set (Array.to_list snaps))
      in
      check_true "registry and shard keys are disjoint"
        (List.for_all (fun k -> not (List.mem k shard_keys)) (key_set base));
      check_true "journal instruments recorded"
        (List.exists
           (fun (n, _) -> String.starts_with ~prefix:"campaign_journal_" n)
           (key_set base));
      (match Snapshot.find ~labels:[ ("domain", "1") ] streamed
               "campaign_shard_seconds"
       with
      | Some (Snapshot.Span h) ->
        check_true "span sums are real-valued"
          (h.Tel.Histogram.s_count > 1
          && not (Float.is_integer h.Tel.Histogram.s_sum))
      | _ -> Alcotest.fail "shard span missing from the merged snapshot");
      let oracle = Array.fold_left Snapshot.merge base snaps in
      check_true "streamed snapshot = batch merge, bit for bit"
        (snapshot_bits streamed = snapshot_bits oracle);
      let landing_order =
        Array.fold_left (fun acc pi -> Snapshot.merge acc snaps.(pi)) base order
      in
      check_true "merging in landing order would change the float sums"
        (snapshot_bits landing_order <> snapshot_bits oracle))

(* The fold's live heap does not grow with the shards it has folded.
   Every shard lands a fresh non-empty snapshot, as the daemon passes
   them whether or not it collects telemetry; a one-shard cell keeps its
   aggregate as the cell's result, and beyond that the fold may grow by
   at most a plan entry per shard, plus one running snapshot when it has
   a registry. *)
let test_fold_retention_bounded () =
  let spec =
    { tiny_spec with Spec.nus = List.init 60 (fun i -> 0.005 *. float i);
      deltas = [ 1; 2 ]; trials_per_cell = 1; rounds = 20 }
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  let clock = irregular_clock 3 in
  let one registry =
    let fold = Fold.create ?registry ~resume:false ~log:ignore spec in
    let plan = Fold.plan fold in
    let before = words fold in
    let kept = ref 0 and snap_words = ref 0 in
    Array.iteri
      (fun pi sh ->
        let agg, snap = shard_with_snapshot ~clock spec (Fold.cells fold) sh in
        kept := !kept + words agg;
        snap_words := max !snap_words (words snap);
        ignore (Fold.land_shard fold pi agg snap))
      plan;
    let n = Array.length plan in
    let allowance =
      !kept + (n * words plan.(0))
      + if Option.is_some registry then !snap_words else 0
    in
    check_true "shards carry telemetry" (!snap_words > 100);
    check_true
      (Printf.sprintf "fold grew %d words over %d shards (allowance %d)"
         (words fold - before) n allowance)
      (words fold - before <= allowance);
    check_true "every cell merged" (Fold.finished fold)
  in
  one None;
  one (Some (Tel.Registry.create ~clock ()))

let suite =
  [
    case "spec cell enumeration" test_spec_cells_enumeration;
    case "spec validation" test_spec_validation;
    case "spec fingerprint" test_spec_fingerprint;
    case "shard plan" test_shard_plan;
    case "worker pool order and draining" test_worker_pool_order_and_draining;
    case "worker pool exception propagation" test_worker_pool_exception_propagates;
    case "worker pool retries requeue" test_worker_pool_retries_requeue;
    case "worker pool retry determinism" test_worker_pool_retry_determinism;
    case "aggregate closed forms" test_aggregate_closed_form;
    case "aggregate merge and snapshot" test_aggregate_merge_and_snapshot;
    case "journal round trip" test_journal_round_trip;
    case "journal writer round trip" test_journal_writer_round_trip;
    case "journal torn tail detect and repair" test_journal_torn_tail_detected_and_repaired;
    case "journal unusable and fatal shapes" test_journal_unusable_and_fatal_shapes;
    case "progress resume rate and eta" test_progress_resume_rate_and_eta;
    case "progress silent reporters are fresh" test_progress_silent_is_fresh;
    case "jobs determinism" test_jobs_determinism;
    case "resume skips completed cells" test_resume_skips_completed_cells;
    case "resume repairs a torn tail" test_resume_repairs_torn_tail;
    case "resume rejects a different spec" test_resume_rejects_other_spec;
    case "single-cell grid drains" test_single_cell_grid_drains;
    case "state mode matches direct runs" test_state_mode_matches_direct_runs;
    case "region verdicts" test_region_verdicts;
    case "spec canonical json round-trips" test_spec_json_round_trip;
    case "journal fold: fresh, recover, repair, reject"
      test_journal_fold_resume;
    case "fold telemetry equals the batch plan-order merge"
      test_fold_telemetry_matches_batch_merge;
    case "fold retention bounded by the shards in flight"
      test_fold_retention_bounded;
  ]
