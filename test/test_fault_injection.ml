(* Fault injection: the protocol machinery must stay sound under arbitrary
   (even deliberately nasty) delay policies and malformed inputs — the
   adversary's only real power is the one the model grants. *)

open Helpers
module Sim = Nakamoto_sim
module Network = Nakamoto_net.Network
module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree

(* A delay policy computed from a hash of (recipient, sender, round) with
   deliberately out-of-range outputs: negative, zero, and huge delays.
   The network must clamp everything into [1, delta]. *)
let nasty_policy salt =
  Network.Per_recipient
    (fun ~recipient (msg : Network.message) ->
      let h =
        Nakamoto_prob.Rng.splitmix64
          (Int64.of_int ((recipient * 7919) + (msg.sender * 104729)
                         + (msg.sent_round * 31) + salt))
      in
      (* Map to a range straddling both invalid extremes. *)
      Int64.to_int (Int64.rem h 400L) - 100)

let run_with_policy ~salt ~seed =
  let cfg =
    {
      (Sim.Config.with_c
         { Sim.Config.default with rounds = 1200; seed; nu = 0.25 }
         ~c:1.5)
      with
      delay_override = Some (nasty_policy salt);
    }
  in
  Sim.Execution.run cfg

let test_nasty_policies_keep_invariants () =
  List.iter
    (fun salt ->
      let r = run_with_policy ~salt ~seed:(Int64.of_int (salt + 9)) in
      check_int
        (Printf.sprintf "salt %d: no orphans" salt)
        0 r.orphans_remaining;
      (* Conservation: every honest block is in the god view. *)
      let honest = ref 0 in
      Block_tree.iter_blocks r.god_view (fun b ->
          if (not (Block.is_genesis b)) && b.Block.miner_class = Block.Honest
          then incr honest);
      check_int (Printf.sprintf "salt %d: conservation" salt) r.honest_blocks
        !honest;
      (* Chains are valid: every final tip's chain walks back to genesis. *)
      Array.iter
        (fun tip ->
          let path = Block_tree.chain_to_genesis r.god_view tip in
          check_true "path starts at genesis" (Block.is_genesis (List.hd path)))
        r.final_tips;
      (* The consistency auditor must run without exceptions. *)
      ignore (Sim.Metrics.check_consistency r))
    [ 1; 2; 3; 4; 5 ]

let test_delays_never_exceed_delta () =
  (* Direct check at the network layer: even a policy answering max_int or
     negative numbers delivers within [1, delta]. *)
  let rng = rng () in
  let evil =
    Network.Per_recipient
      (fun ~recipient _ -> if recipient mod 2 = 0 then max_int else -1000)
  in
  let n = Network.create ~delta:5 ~players:4 ~policy:evil ~rng in
  for round = 1 to 50 do
    Network.broadcast n
      { Network.sender = round mod 4; sent_round = round; blocks = [] }
  done;
  let received = ref 0 in
  for recipient = 0 to 3 do
    for round = 1 to 55 do
      received :=
        !received + List.length (Network.deliver n ~recipient ~round)
    done
  done;
  check_int "all messages delivered within delta" (Network.messages_sent n)
    !received

let test_malformed_blocks_rejected_everywhere () =
  (* A block whose parent is unknown is refused by the tree and buffered,
     not inserted, by the miner. *)
  let tree = Block_tree.create () in
  let stranger =
    Block.mine
      ~parent:
        (Block.mine ~parent:Block.genesis ~miner:1 ~miner_class:Block.Honest
           ~round:1 ~nonce:0 ~payload:"")
      ~miner:1 ~miner_class:Block.Honest ~round:2 ~nonce:0 ~payload:""
  in
  check_true "tree refuses orphan" (Block_tree.insert tree stranger = `Orphan);
  let miner = Sim.Miner.create ~id:0 () in
  Sim.Miner.receive miner [ stranger ];
  check_int "miner buffers, does not adopt" 0 (Sim.Miner.chain_length miner);
  check_int "orphan buffered" 1 (Sim.Miner.orphan_count miner)

let props =
  [
    prop ~count:20 "random nasty policies keep the execution sound"
      Arbitrary.(
        pair (int_range ~lo:0 ~hi:1000 ()) (int_range ~lo:0 ~hi:1000 ()))
      (fun (salt, seed) ->
        let r = run_with_policy ~salt ~seed:(Int64.of_int seed) in
        r.orphans_remaining = 0
        && Array.for_all
             (fun (tip : Block.t) -> Block_tree.mem r.god_view tip.hash)
             r.final_tips);
  ]

(* --- Campaign fault plans: kill-then-resume bit-identity ------------ *)

module Campaign = Nakamoto_campaign
module Spec = Campaign.Spec
module Faultplan = Campaign.Faultplan

let crash_spec =
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
  let path = Filename.temp_file ("fault_" ^ tag) ".jsonl" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

let snapshots (o : Campaign.Campaign.outcome) =
  Array.map
    (fun (r : Campaign.Campaign.cell_result) ->
      Campaign.Aggregate.snapshot r.Campaign.Campaign.aggregate)
    o.Campaign.Campaign.cells

(* The oracle: one uninterrupted run.  Each crash plan must land, after
   resume, on exactly these bytes and aggregates. *)
let with_oracle k =
  let golden = temp_journal "golden" in
  Fun.protect
    ~finally:(fun () -> cleanup golden)
    (fun () ->
      let o = Campaign.Campaign.run ~jobs:2 ~journal_path:golden crash_spec in
      k o (read_file golden))

let crash_then_resume ~fault =
  let path = temp_journal "crash" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      (match
         Campaign.Campaign.run ~jobs:2 ~journal_path:path ~fault ~log:ignore
           crash_spec
       with
      | _ -> Alcotest.fail "expected the injected crash to escape"
      | exception Faultplan.Injected_crash _ -> ());
      let logged = ref [] in
      let r =
        Campaign.Campaign.run ~jobs:2 ~journal_path:path ~resume:true
          ~log:(fun m -> logged := m :: !logged)
          crash_spec
      in
      (r, read_file path, !logged))

let test_crash_after_appends_then_resume () =
  with_oracle (fun o golden_bytes ->
      (* Crash with the header plus one cell fsynced: the resume must
         recover that cell and recompute only the other. *)
      let r, bytes, _ =
        crash_then_resume ~fault:(Faultplan.Crash_after_appends 2)
      in
      check_int "one cell survived the crash" 1
        r.Campaign.Campaign.resumed_cells;
      check_int "only the lost cell recomputed" crash_spec.Spec.trials_per_cell
        r.Campaign.Campaign.fresh_trials;
      check_true "aggregates bit-identical to uninterrupted run"
        (compare (snapshots r) (snapshots o) = 0);
      check_true "journal bytes identical to uninterrupted run"
        (bytes = golden_bytes))

let test_torn_write_then_resume () =
  with_oracle (fun o golden_bytes ->
      (* The second cell append (journal append #3, after the header) is
         cut mid-line: SIGKILL during write.  Resume must repair the
         tear, log it, and recompute the cell. *)
      let r, bytes, logged = crash_then_resume ~fault:(Faultplan.Torn_write 3) in
      check_true "torn tail repair was logged"
        (List.exists (contains_substring ~affix:"torn tail") logged);
      check_int "the intact cell survived" 1 r.Campaign.Campaign.resumed_cells;
      check_true "aggregates bit-identical to uninterrupted run"
        (compare (snapshots r) (snapshots o) = 0);
      check_true "journal bytes identical to uninterrupted run"
        (bytes = golden_bytes));
  (* Tearing the very first append leaves a torn header: no usable
     state, so the resume starts fresh — loudly, never fatally. *)
  let path = temp_journal "torn_header" in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      (match
         Campaign.Campaign.run ~jobs:2 ~journal_path:path
           ~fault:(Faultplan.Torn_write 1) ~log:ignore crash_spec
       with
      | _ -> Alcotest.fail "expected the injected crash to escape"
      | exception Faultplan.Injected_crash _ -> ());
      let logged = ref [] in
      let r =
        Campaign.Campaign.run ~jobs:2 ~journal_path:path ~resume:true
          ~log:(fun m -> logged := m :: !logged)
          crash_spec
      in
      check_true "unusable journal logged"
        (List.exists (contains_substring ~affix:"no usable state") !logged);
      check_int "nothing recovered" 0 r.Campaign.Campaign.resumed_cells)

let test_raising_worker_supervision () =
  with_oracle (fun o _ ->
      (* Shard 0's worker raises twice; the default retry budget (2)
         covers it and the outcome is unaffected. *)
      let logged = ref [] in
      let r =
        Campaign.Campaign.run ~jobs:2
          ~fault:(Faultplan.Raising_worker { task = 0; failures = 2 })
          ~log:(fun m -> logged := m :: !logged)
          crash_spec
      in
      check_true "requeues were logged"
        (List.exists (contains_substring ~affix:"requeueing") !logged);
      check_true "retried shard changes nothing"
        (compare (snapshots r) (snapshots o) = 0);
      (* With the budget below the failure count, the failure must
         propagate rather than hang or silently drop the shard. *)
      match
        Campaign.Campaign.run ~jobs:2 ~retries:1
          ~fault:(Faultplan.Raising_worker { task = 0; failures = 2 })
          ~log:ignore crash_spec
      with
      | _ -> Alcotest.fail "expected the exhausted retry budget to re-raise"
      | exception Failure msg ->
        check_true "the worker's own exception surfaces"
          (contains_substring ~affix:"raising-worker" msg))

let test_slow_worker_changes_nothing () =
  with_oracle (fun o golden_bytes ->
      let path = temp_journal "slow" in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          let r =
            Campaign.Campaign.run ~jobs:2 ~journal_path:path
              ~fault:(Faultplan.Slow_worker { task = 0; delay = 0.05 })
              ~log:ignore crash_spec
          in
          check_true "a straggler shard changes nothing"
            (compare (snapshots r) (snapshots o) = 0);
          check_true "journal bytes identical despite reordering"
            (read_file path = golden_bytes)))

let test_faultplan_parsing () =
  let roundtrip s plan =
    match Faultplan.of_string s with
    | Ok p ->
      check_true (Printf.sprintf "parse %s" s) (p = plan);
      check_true
        (Printf.sprintf "round-trip %s" s)
        (Faultplan.of_string (Faultplan.to_string p) = Ok p)
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  roundtrip "crash-after-appends=3" (Faultplan.Crash_after_appends 3);
  roundtrip "torn-write=1" (Faultplan.Torn_write 1);
  roundtrip "raising-worker=4" (Faultplan.Raising_worker { task = 4; failures = 1 });
  roundtrip "raising-worker=4:2" (Faultplan.Raising_worker { task = 4; failures = 2 });
  roundtrip "slow-worker=0:0.25" (Faultplan.Slow_worker { task = 0; delay = 0.25 });
  List.iter
    (fun s ->
      match Faultplan.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s)
    [ "crash-after-appends=0"; "torn-write=x"; "raising-worker=-1";
      "slow-worker=1:-2"; "unplugged"; "crash-after-appends" ]

let suite =
  [
    case "nasty policies keep invariants" test_nasty_policies_keep_invariants;
    case "delays always clamped to [1, delta]" test_delays_never_exceed_delta;
    case "malformed blocks rejected" test_malformed_blocks_rejected_everywhere;
    case "crash-after-appends then resume" test_crash_after_appends_then_resume;
    case "torn write then resume" test_torn_write_then_resume;
    case "raising worker supervision" test_raising_worker_supervision;
    case "slow worker changes nothing" test_slow_worker_changes_nothing;
    case "fault plan parsing" test_faultplan_parsing;
  ]
  @ props
