(* The consistency audit against its literal reference: the quadratic
   audit kept here as a test-local oracle, compared report for report
   with Nakamoto_sim.Metrics on generated executions under every
   executor a configuration admits. *)

open Helpers
module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree
module Hash = Nakamoto_chain.Hash
module Scenarios = Nakamoto_sim.Scenarios
module Config = Nakamoto_sim.Config
module Execution = Nakamoto_sim.Execution
module Metrics = Nakamoto_sim.Metrics

(* --- the oracle: every (r <= s, tip) triple and every tip pair --- *)

module Oracle = struct
  let snapshot_meet god (snap : Execution.snapshot) =
    match Array.to_list snap.tips with
    | [] -> Block.genesis
    | first :: rest ->
      List.fold_left
        (fun meet tip ->
          let h = Block_tree.common_prefix_height god meet tip in
          Block_tree.ancestor_at_height god meet ~height:h)
        first rest

  let hash_chain god (b : Block.t) =
    let chain = Array.make (b.height + 1) b.hash in
    let rec fill (b : Block.t) =
      chain.(b.height) <- b.hash;
      if b.height > 0 then fill (Block_tree.find_exn god b.parent)
    in
    fill b;
    chain

  let check_consistency ~truncate (result : Execution.result) =
    let god = result.god_view in
    let snaps = Array.of_list result.snapshots in
    let meets = Array.map (snapshot_meet god) snaps in
    let meet_chains = Array.map (hash_chain god) meets in
    let pairs = ref 0 in
    let violations = ref 0 in
    let worst = ref 0 in
    Array.iteri
      (fun ri snap_r ->
        let truncated_tips =
          Array.map
            (fun (tip : Block.t) ->
              let keep = tip.height - truncate in
              if keep <= 0 then None
              else Some (Block_tree.ancestor_at_height god tip ~height:keep))
            snap_r.Execution.tips
        in
        for si = ri to Array.length snaps - 1 do
          let meet_s = meets.(si) in
          let chain_s = meet_chains.(si) in
          Array.iter
            (fun truncated ->
              incr pairs;
              match truncated with
              | None -> ()
              | Some (cut : Block.t) ->
                let ok =
                  cut.height <= meet_s.Block.height
                  && Hash.equal chain_s.(cut.height) cut.hash
                in
                if not ok then begin
                  incr violations;
                  let rec agreed (b : Block.t) =
                    if
                      b.height <= meet_s.Block.height
                      && Hash.equal chain_s.(b.height) b.hash
                    then b.height
                    else agreed (Block_tree.find_exn god b.parent)
                  in
                  let depth = cut.height - agreed cut in
                  if depth > !worst then worst := depth
                end)
            truncated_tips
        done)
      snaps;
    {
      Metrics.truncate;
      pairs_checked = !pairs;
      violations = !violations;
      worst_violation_depth = !worst;
    }

  let max_disagreement (result : Execution.result) =
    let god = result.god_view in
    List.fold_left
      (fun acc (snap : Execution.snapshot) ->
        let tips = snap.tips in
        let worst = ref acc in
        Array.iteri
          (fun i a ->
            Array.iteri
              (fun j b ->
                if j > i then begin
                  let d = Block_tree.divergence god a b in
                  if d > !worst then worst := d
                end)
              tips)
          tips;
        !worst)
      0 result.snapshots
end

(* --- the property --- *)

let report_to_string (r : Metrics.consistency_report) =
  Printf.sprintf "{T=%d; pairs=%d; violations=%d; worst=%d}" r.truncate
    r.pairs_checked r.violations r.worst_violation_depth

(* The lanes a spec admits: each mode whose configuration validates. *)
let lanes (spec : Scenarios.spec) =
  List.filter_map
    (fun mode ->
      match Scenarios.of_spec { spec with mining_mode = mode } with
      | cfg -> Some cfg
      | exception Invalid_argument _ -> None)
    [ Config.Exact; Config.Aggregate; Config.Skip ]

let violating_cases = ref 0

let prop_audit_matches_oracle (spec, truncate) =
  let violated = ref false in
  List.iter
    (fun cfg ->
      let r = Execution.run cfg in
      let mode =
        Scenarios.spec_to_string
          { spec with mining_mode = cfg.Config.mining_mode }
      in
      let expected = Oracle.check_consistency ~truncate r in
      let actual = Metrics.check_consistency ~truncate r in
      if actual <> expected then
        failwith
          (Printf.sprintf "%s: audit %s, oracle %s" mode
             (report_to_string actual) (report_to_string expected));
      if expected.violations > 0 then violated := true;
      let expected = Oracle.max_disagreement r in
      let actual = Metrics.max_disagreement r in
      if actual <> expected then
        failwith
          (Printf.sprintf "%s: max_disagreement %d, oracle %d" mode actual
             expected);
      List.iter
        (fun (snap : Execution.snapshot) ->
          let expected = (Oracle.snapshot_meet r.god_view snap).Block.height in
          let actual = Metrics.agreed_prefix_height r snap in
          if actual <> expected then
            failwith
              (Printf.sprintf "%s: round %d agreed prefix %d, oracle %d" mode
                 snap.round actual expected))
        r.snapshots)
    (lanes spec);
  if !violated then incr violating_cases

(* The comparison only means something if the audit found violations:
   count the violating cases and fail when none were generated. *)
let test_audit_matches_oracle () =
  violating_cases := 0;
  let arb =
    Arbitrary.pair P.Domain_gen.exec_spec
      (Arbitrary.int_range ~lo:0 ~hi:8 ())
  in
  (try
     P.Property.check ~count:100
       ~name:"consistency audit matches the quadratic oracle" arb
       prop_audit_matches_oracle
   with P.Property.Failed f -> Alcotest.fail (P.Property.failure_message f));
  if !violating_cases = 0 then
    Alcotest.fail "no generated case violated consistency"

let suite =
  [
    case "consistency audit, disagreement and meets match the quadratic oracle"
      test_audit_matches_oracle;
  ]
