open Helpers
module Assessment = Nakamoto_core.Assessment
module Params = Nakamoto_core.Params

let point ~nu ~c = Params.of_c ~n:1e5 ~delta:1e6 ~nu ~c

let test_zones () =
  let zone a = (Assessment.assess a).Assessment.zone in
  check_true "well above the bound is safe"
    (zone (point ~nu:0.25 ~c:5.) = Assessment.Safe);
  check_true "below the attack line is broken"
    (zone (point ~nu:0.3 ~c:0.2) = Assessment.Broken);
  check_true "between is the gap"
    (zone (point ~nu:0.3 ~c:0.8) = Assessment.Gap);
  check_true "nu = 0 is always safe"
    (zone (Params.of_c ~n:1e5 ~delta:1e6 ~nu:0. ~c:0.01) = Assessment.Safe)

let test_zone_boundaries_consistent () =
  (* The zone must agree with the underlying bound functions. *)
  List.iter
    (fun (nu, c) ->
      let a = Assessment.assess (point ~nu ~c) in
      (match a.Assessment.zone with
      | Assessment.Safe -> check_true "safe means margin > 0" (a.neat_margin > 0.)
      | Assessment.Broken ->
        check_true "broken means below attack" (c < a.attack_threshold)
      | Assessment.Gap ->
        check_true "gap between the lines"
          (c <= a.neat_threshold +. 1e-12 && c >= a.attack_threshold -. 1e-12));
      check_true "thresholds ordered"
        (a.attack_threshold <= a.neat_threshold +. 1e-9))
    [ (0.1, 3.); (0.25, 1.); (0.4, 0.5); (0.45, 10.); (0.05, 0.1) ]

let test_safe_zone_has_settlement () =
  let a = Assessment.assess (point ~nu:0.2 ~c:5.) in
  (match a.Assessment.confirmations with
  | Some conf ->
    check_true "finite depth" (conf.Nakamoto_core.Confirmation.confirmations > 0)
  | None -> Alcotest.fail "safe zone must have a settlement depth");
  (* Deep in the broken zone the conservative rates give no finite depth. *)
  let broken = Assessment.assess (point ~nu:0.45 ~c:0.2) in
  check_true "no settlement when broken"
    (broken.Assessment.confirmations = None)

let test_margins_and_envelopes () =
  let a = Assessment.assess (point ~nu:0.25 ~c:5.) in
  close "neat margin is c - threshold" (5. -. a.neat_threshold)
    a.Assessment.neat_margin;
  check_true "Thm1 margin positive in safe zone" (a.theorem1_log_margin > 0.);
  let lo, hi = a.growth_bounds in
  check_true "growth bounds ordered" (0. < lo && lo <= hi);
  check_true "quality floor in [0,1]"
    (a.quality_bound >= 0. && a.quality_bound <= 1.);
  check_true "exact Thm2 threshold at least the neat one"
    (a.theorem2_exact_threshold >= a.neat_threshold -. 1e-9)

let test_rendering () =
  let a = Assessment.assess (point ~nu:0.25 ~c:5.) in
  let s = Format.asprintf "%a" Assessment.pp a in
  check_true "zone shown" (contains_substring ~affix:"SAFE" s);
  check_true "bound shown" (contains_substring ~affix:"our bound" s);
  let table = Assessment.to_table [ a; Assessment.assess (point ~nu:0.3 ~c:0.2) ] in
  check_int "two rows" 2 (Nakamoto_numerics.Table.row_count table)

(* --- the suffix-chain probe (diagnose) ----------------------------- *)

module Chain = Nakamoto_markov.Chain

let test_diagnose_enumerable () =
  List.iter
    (fun (delta, nu, c) ->
      let label = Printf.sprintf "Delta = %g" delta in
      match Assessment.diagnose (Params.of_c ~n:1e5 ~delta ~nu ~c) with
      | None -> Alcotest.fail (label ^ ": enumerable Delta must be probed")
      | Some d ->
        let states = (2 * int_of_float delta) + 1 in
        check_int (label ^ ": 2 Delta + 1 states") states d.Assessment.suffix_states;
        check_true (label ^ ": solver route follows the crossover")
          (d.suffix_sparse = (states > Chain.sparse_crossover));
        check_true (label ^ ": solve agrees with Eq. 37")
          (d.suffix_max_abs_error <= 1e-9))
    [ (64., 0.2, 5.); (2000., 0.014, 20.) ]

let test_diagnose_not_enumerable () =
  List.iter
    (fun delta ->
      check_true
        (Printf.sprintf "Delta = %g is not probed" delta)
        (Assessment.diagnose (Params.of_c ~n:1e5 ~delta ~nu:0.2 ~c:5.) = None))
    [ 1e13; 64.5; 4097. ]

(* --- verdict equivalence at enumerable Delta ----------------------
   [verdict_of (assess p)] at fixed integer-Delta points, every field
   pinned to the values the assessment produced while it still ran the
   suffix-chain probe: taking the probe off the verdict path must not
   move a single bit. *)

let test_verdicts_pinned () =
  let pinned params zone margin confirmations conf_reason =
    ( params,
      {
        Assessment.v_params = params;
        v_zone = zone;
        v_margin = margin;
        v_margin_lo = margin;
        v_margin_hi = margin;
        v_confirmations = confirmations;
        v_conf_reason = conf_reason;
        v_cached = false;
        v_fallback = None;
      } )
  in
  let of_c n delta nu c = Params.of_c ~n ~delta ~nu ~c in
  let outside = Some "outside_consistency" in
  List.iteri
    (fun i (params, want) ->
      check_true
        (Printf.sprintf "point %d (Delta = %g) verdict unchanged" i
           params.Params.delta)
        (Assessment.verdict_of (Assessment.assess params) = want))
    [
      pinned (of_c 100. 1. 0.25 5.) Assessment.Safe 0x1.d13bebe993781p+1
        (Some 38) None;
      pinned (of_c 100. 2. 0.3 0.8) Assessment.Gap (-0x1.b4622c52c3d6p-1) None
        outside;
      pinned
        (Params.create ~p:1e-6 ~n:100. ~delta:10. ~nu:0.4995)
        Assessment.Safe 0x1.f3800aeeffda7p+8 None (Some "depth_limited");
      pinned (of_c 1e5 64. 0.2 5.) Assessment.Safe 0x1.ec449d78832p+1
        (Some 16) None;
      pinned (of_c 1e5 500. 0.3 0.2) Assessment.Broken
        (-0x1.73caafc2fb84ap+0) None outside;
      pinned (of_c 120. 1800. 0.014 20.) Assessment.Safe 0x1.389582a9976b1p+4
        (Some 3) None;
      pinned (of_c 1e5 2000. 0.014 20.) Assessment.Safe 0x1.389582a9976b1p+4
        (Some 3) None;
      pinned
        (Params.create ~p:1.9e-6 ~n:140. ~delta:2048. ~nu:0.016)
        Assessment.Safe 0x1.5b9cdc13bd078p+0 (Some 4) None;
      pinned (of_c 1000. 4096. 0.1 3.) Assessment.Safe 0x1.1723f3f28bae7p+1
        (Some 9) None;
      pinned (of_c 100. 4096. 0.45 10.) Assessment.Safe 0x1.212d2db5953dcp+2
        (Some 1606) None;
      pinned (of_c 100. 100. 0. 0.01) Assessment.Safe 0x1.47ae147ae147bp-7
        None (Some "no_adversary");
    ]

(* --- surface fallback frontiers -----------------------------------
   Single-cell surfaces built to straddle a verdict boundary: the
   certifier must refuse the cell, the query must route to the exact
   solver, and the verdict must carry the fallback tag — never a
   silently wrong cached answer. *)

module Surface = Nakamoto_surface
module Confirmation = Nakamoto_core.Confirmation

let single_cell ?epsilon ?conf_limit ~p:(plo, phi) ~n:(nlo, nhi)
    ~delta:(dlo, dhi) ~nu:(vlo, vhi) () =
  Surface.Table.build ?epsilon ?conf_limit
    (Surface.Grid.create
       ~p:(Surface.Grid.axis ~lo:plo ~hi:phi ~count:2 ~scale:Surface.Grid.Log)
       ~n:(Surface.Grid.axis ~lo:nlo ~hi:nhi ~count:2 ~scale:Surface.Grid.Log)
       ~delta:
         (Surface.Grid.axis ~lo:dlo ~hi:dhi ~count:2 ~scale:Surface.Grid.Log)
       ~nu:
         (Surface.Grid.axis ~lo:vlo ~hi:vhi ~count:2
            ~scale:Surface.Grid.Linear))

let expect_fallback ~label ~reason table params =
  let v = Surface.Table.assess_cached table params in
  check_true (label ^ ": not served cached") (not v.Assessment.v_cached);
  check_true
    (label ^ ": tagged " ^ reason)
    (v.Assessment.v_fallback = Some reason);
  let exact = Assessment.assess params in
  check_true
    (label ^ ": fallback verdict equals exact")
    (v.Assessment.v_zone = exact.Assessment.zone)

let test_safe_gap_frontier_falls_back () =
  (* c spans ~0.35 .. 4.2 against a neat threshold near 1.4: the cell
     straddles SAFE/GAP and its zone cannot certify. *)
  let t =
    single_cell ~p:(1e-4, 4e-4) ~n:(80., 120.) ~delta:(30., 60.)
      ~nu:(0.2, 0.3) ()
  in
  (match (Surface.Table.cell t 0).Surface.Cert.zone with
  | Surface.Cert.Zone_inconclusive -> ()
  | Surface.Cert.Zone _ -> Alcotest.fail "straddling cell certified a zone");
  expect_fallback ~label:"safe/gap" ~reason:"zone_boundary" t
    (Params.create ~p:2e-4 ~n:100. ~delta:45. ~nu:0.25)

let test_gap_attack_frontier_falls_back () =
  (* c in ~0.49 .. 0.66 against an attack threshold in ~0.53 .. 0.60:
     below the neat bound everywhere, but GAP vs BROKEN is undecidable
     over the cell. *)
  let t =
    single_cell ~p:(3.8e-4, 4.2e-4) ~n:(100., 110.) ~delta:(40., 44.)
      ~nu:(0.3, 0.32) ()
  in
  expect_fallback ~label:"gap/attack" ~reason:"zone_boundary" t
    (Params.create ~p:4e-4 ~n:105. ~delta:42. ~nu:0.31)

let test_conf_frontier_falls_back () =
  (* A comfortably-safe cell whose depth certifies at 3 — strangling the
     certified search at conf_limit 1 leaves the depth inconclusive, so
     only the confirmation boundary can trigger the fallback. *)
  let box () = (single_cell ~p:(1.1e-4, 1.19e-4) ~n:(100., 111.) ~delta:(28., 30.4) ~nu:(0.0134, 0.0146)) in
  let full = box () () in
  let zc, cc, fc = Surface.Table.conclusive_counts full in
  check_int "control cell fully conclusive" 1 fc;
  check_int "control zone certified" 1 zc;
  check_int "control depth certified" 1 cc;
  let strangled = box () ~conf_limit:1 () in
  let zc, cc, _ = Surface.Table.conclusive_counts strangled in
  check_int "strangled zone still certified" 1 zc;
  check_int "strangled depth inconclusive" 0 cc;
  expect_fallback ~label:"conf" ~reason:"conf_boundary" strangled
    (Params.create ~p:1.15e-4 ~n:105. ~delta:29. ~nu:0.014);
  check_raises_invalid "epsilon below the exact search's floor" (fun () ->
      ignore (box () ~epsilon:1e-12 ()))

(* --- depth-limit surfacing (the assess_checked split) -------------- *)

let test_depth_limited_is_structured () =
  (* A rate ratio just under 1 needs more than the solver's 10_000-depth
     cap: historically this aborted batch callers with Invalid_argument;
     assess_checked must surface it as data instead. *)
  let params = Params.create ~p:1e-6 ~n:100. ~delta:10. ~nu:0.4995 in
  let a = Assessment.assess params in
  check_true "no finite depth" (a.Assessment.confirmations = None);
  (match a.Assessment.confirmation_failure with
  | Some (Confirmation.Depth_limited { rate_ratio; limit }) ->
    check_int "limit is the solver cap" 10_000 limit;
    check_true "ratio just under one" (rate_ratio > 0.99 && rate_ratio < 1.)
  | _ -> Alcotest.fail "expected Depth_limited");
  let v = Assessment.verdict_of a in
  check_true "verdict reason is depth_limited"
    (v.Assessment.v_conf_reason = Some "depth_limited");
  check_true "rendering names the reason"
    (contains_substring ~affix:"depth_limited"
       (Format.asprintf "%a" Assessment.pp a))

let test_outside_consistency_is_structured () =
  let params = Params.create ~p:1e-6 ~n:100. ~delta:10. ~nu:0.4998 in
  let a = Assessment.assess params in
  (match a.Assessment.confirmation_failure with
  | Some (Confirmation.Outside_consistency { rate_ratio }) ->
    check_true "ratio at least one" (rate_ratio >= 1.)
  | _ -> Alcotest.fail "expected Outside_consistency");
  check_true "verdict reason is outside_consistency"
    ((Assessment.verdict_of a).Assessment.v_conf_reason
    = Some "outside_consistency")

let props =
  [
    prop ~count:100 "zone ordering is monotone in c"
      (* c is round-tripped through p = 1/(cnD); keep the two points a
         few ulps apart so rounding cannot swap them across a boundary. *)
      Arbitrary.(
        triple
          (float_range ~lo:0.05 ~hi:0.45)
          (float_range ~lo:0.05 ~hi:50.)
          (float_range ~lo:1.001 ~hi:3.))
      (fun (nu, c_lo, factor) ->
        let c_hi = c_lo *. factor in
        let rank z =
          match z with Assessment.Broken -> 0 | Assessment.Gap -> 1 | Assessment.Safe -> 2
        in
        let z c = (Assessment.assess (point ~nu ~c)).Assessment.zone in
        rank (z c_lo) <= rank (z c_hi));
  ]

let suite =
  [
    case "zones" test_zones;
    case "zone boundaries consistent" test_zone_boundaries_consistent;
    case "settlement availability" test_safe_zone_has_settlement;
    case "margins and envelopes" test_margins_and_envelopes;
    case "rendering" test_rendering;
    case "diagnose probes enumerable Delta" test_diagnose_enumerable;
    case "diagnose skips non-enumerable Delta" test_diagnose_not_enumerable;
    case "verdicts pinned at enumerable Delta" test_verdicts_pinned;
    case "safe/gap frontier falls back" test_safe_gap_frontier_falls_back;
    case "gap/attack frontier falls back" test_gap_attack_frontier_falls_back;
    case "confirmation frontier falls back" test_conf_frontier_falls_back;
    case "depth limit surfaces as data" test_depth_limited_is_structured;
    case "outside consistency surfaces as data"
      test_outside_consistency_is_structured;
  ]
  @ props
