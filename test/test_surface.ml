open Helpers
module Grid = Nakamoto_surface.Grid
module Cert = Nakamoto_surface.Cert
module Table = Nakamoto_surface.Table
module Params = Nakamoto_core.Params
module Assessment = Nakamoto_core.Assessment
module I = Nakamoto_numerics.Interval
module Tel = Nakamoto_telemetry

(* A 3x3x3x3-vertex box (16 cells) whose c spans roughly 0.2 .. 14:
   cells on every side of both frontiers.  Cells this coarse (a factor
   of 8 in c each) rarely certify — they exercise the format and the
   fallback paths. *)
let small_grid () =
  Grid.create
    ~p:(Grid.axis ~lo:5e-5 ~hi:2e-4 ~count:3 ~scale:Grid.Log)
    ~n:(Grid.axis ~lo:60. ~hi:240. ~count:3 ~scale:Grid.Log)
    ~delta:(Grid.axis ~lo:24. ~hi:96. ~count:3 ~scale:Grid.Log)
    ~nu:(Grid.axis ~lo:0.08 ~hi:0.2 ~count:3 ~scale:Grid.Linear)

(* A narrow box strictly inside the safe zone (c in ~1.4 .. 3.3 against
   a neat threshold under 0.48) sitting on a confirmation-depth plateau:
   the rate ratio stays near 0.02-0.04 where the exact depth is 3 across
   wide parameter bands, so the interval certifier can conclude — which
   is what query serving relies on.  (At larger nu the ratio climbs
   toward 0.2 where consecutive depth bands are only a few percent of
   ratio apart, and no cell of useful size can certify a constant
   depth.) *)
let fine_safe_grid () =
  Grid.create
    ~p:(Grid.axis ~lo:1.1e-4 ~hi:1.4e-4 ~count:4 ~scale:Grid.Log)
    ~n:(Grid.axis ~lo:100. ~hi:140. ~count:4 ~scale:Grid.Log)
    ~delta:(Grid.axis ~lo:28. ~hi:36. ~count:4 ~scale:Grid.Log)
    ~nu:(Grid.axis ~lo:0.012 ~hi:0.016 ~count:4 ~scale:Grid.Linear)

let test_grid_indexing () =
  let g = small_grid () in
  check_int "vertices" 81 (Grid.vertex_count g);
  check_int "cells" 16 (Grid.cell_count g);
  for id = 0 to Grid.vertex_count g - 1 do
    check_int "vertex id round-trip" id
      (Grid.vertex_id g (Grid.vertex_of_id g id))
  done;
  for id = 0 to Grid.cell_count g - 1 do
    check_int "cell id round-trip" id (Grid.cell_id g (Grid.cell_of_id g id))
  done;
  let p = Grid.p_axis g in
  check_true "lo endpoint pinned" (Grid.vertex p 0 = 5e-5);
  check_true "hi endpoint pinned" (Grid.vertex p 2 = 2e-4);
  check_true "interior vertex between"
    (Grid.vertex p 1 > 5e-5 && Grid.vertex p 1 < 2e-4);
  check_true "locate at lo" (Grid.locate p 5e-5 = Some 0);
  check_true "locate at hi" (Grid.locate p 2e-4 = Some 1);
  check_true "locate outside" (Grid.locate p 3e-4 = None);
  close "weight at cell start" 0. (Grid.weight p 0 5e-5);
  close "weight at cell end" 1. (Grid.weight p 0 (Grid.vertex p 1))

let test_roundtrip_and_job_invariance () =
  let g = small_grid () in
  let t1 = Table.build ~jobs:1 g in
  let bytes1 = Table.to_string t1 in
  let t2 = Table.build ~jobs:1 g in
  check_true "rebuild is byte-identical" (Table.to_string t2 = bytes1);
  let t3 = Table.build ~jobs:3 g in
  check_true "parallel build is byte-identical" (Table.to_string t3 = bytes1);
  match Table.of_string bytes1 with
  | Error msg -> Alcotest.failf "round-trip load failed: %s" msg
  | Ok back ->
    check_true "decode/encode is the identity" (Table.to_string back = bytes1);
    check_true "fingerprint survives" (Table.fingerprint back = Table.fingerprint t1)

let test_load_rejects_corruption () =
  let g = small_grid () in
  let bytes = Table.to_string (Table.build g) in
  let expect_error label s =
    match Table.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupt surface loaded" label
  in
  expect_error "bad magic" ("XXKSURF1" ^ String.sub bytes 8 (String.length bytes - 8));
  expect_error "truncated" (String.sub bytes 0 (String.length bytes - 9));
  let flipped = Bytes.of_string bytes in
  let mid = String.length bytes - 100 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xff));
  expect_error "flipped body byte" (Bytes.to_string flipped)

let test_cached_agrees_with_exact () =
  let g = fine_safe_grid () in
  let t = Table.build g in
  let hits = ref 0 in
  (* Probe every cell at its midpoint: conclusive cells must agree with
     the exact solver on both the zone and the depth, and the margin
     estimate must sit inside the certified enclosure. *)
  for id = 0 to Grid.cell_count g - 1 do
    let idx = Grid.cell_of_id g id in
    let axes = Grid.axes g in
    let mid d =
      let lo = Grid.vertex axes.(d) idx.(d)
      and hi = Grid.vertex axes.(d) (idx.(d) + 1) in
      (lo +. hi) /. 2.
    in
    let p = mid 0 and n = mid 1 and delta = mid 2 and nu = mid 3 in
    let params = Params.create ~p ~n ~delta ~nu in
    let exact = Assessment.assess params in
    match Table.lookup t ~p ~n ~delta ~nu with
    | Error _ -> ()
    | Ok hit ->
      incr hits;
      let cell = hit.Table.h_cell in
      (match cell.Cert.zone with
      | Cert.Zone z ->
        check_true "cached zone equals exact" (z = exact.Assessment.zone)
      | Cert.Zone_inconclusive -> Alcotest.fail "hit with inconclusive zone");
      (match cell.Cert.conf with
      | Cert.Conf z ->
        check_true "cached depth equals exact"
          (Some z
          = Option.map
              (fun c -> c.Nakamoto_core.Confirmation.confirmations)
              exact.Assessment.confirmations)
      | Cert.Conf_none ->
        check_true "certified-none depth is exactly none"
          (exact.Assessment.confirmations = None)
      | Cert.Conf_inconclusive -> Alcotest.fail "hit with inconclusive depth");
      check_true "margin estimate inside the enclosure"
        (I.contains cell.Cert.margin hit.Table.h_margin);
      check_true "exact margin inside the enclosure"
        (I.contains cell.Cert.margin exact.Assessment.neat_margin)
  done;
  check_true "some cells are conclusive" (!hits > 0)

let counter_value r ?labels name =
  Tel.Counter.value (Tel.Registry.counter r ?labels name)

let test_telemetry_counters () =
  let g = fine_safe_grid () in
  let t = Table.build g in
  let r = Tel.Registry.create ~clock:(fun () -> 0.) () in
  (* Outside the box on every axis. *)
  let outside = Params.create ~p:1e-3 ~n:1000. ~delta:4. ~nu:0.3 in
  let v = Table.assess_cached ~telemetry:r t outside in
  check_true "outside-box falls back"
    (v.Assessment.v_fallback = Some "outside_box");
  check_false "fallback is not cached" v.Assessment.v_cached;
  check_int "fallback counted" 1
    (counter_value r ~labels:[ ("reason", "outside_box") ]
       "surface_fallbacks_total");
  (* A safe interior point of the fine grid, inside a certified cell. *)
  let inside = Params.create ~p:1.15e-4 ~n:105. ~delta:29. ~nu:0.014 in
  let v = Table.assess_cached ~telemetry:r t inside in
  check_true "interior point is served from the table" v.Assessment.v_cached;
  check_int "hit counted" 1 (counter_value r "surface_hits_total");
  check_true "cached verdict equals exact"
    (v.Assessment.v_zone = (Assessment.assess inside).Assessment.zone)

let test_describe_and_header () =
  let g = small_grid () in
  let t = Table.build g in
  let header = Table.header_json t in
  check_true "header names the format"
    (contains_substring ~affix:"nakamoto-assessment-surface" header);
  check_true "header carries the fingerprint"
    (contains_substring ~affix:(Int64.to_string (Table.fingerprint t)) header);
  check_true "describe mentions cells"
    (contains_substring ~affix:"16 cells" (Table.describe t))

(* The enumerable-Delta plateau: a 4^4 box at integer Delta 1800-2048
   on the depth-3 band (rate ratio 0.02-0.04), queried at 40 seeded
   integer-Delta points.  Most of it must certify and most queries must
   be served from the table, or the grid has drifted off the plateau. *)
let test_enumerable_plateau_coverage () =
  let count = 4 in
  let g =
    Grid.create
      ~p:(Grid.axis ~lo:1.6e-6 ~hi:1.9e-6 ~count ~scale:Grid.Log)
      ~n:(Grid.axis ~lo:100. ~hi:140. ~count ~scale:Grid.Log)
      ~delta:(Grid.axis ~lo:1800. ~hi:2048. ~count ~scale:Grid.Log)
      ~nu:(Grid.axis ~lo:0.012 ~hi:0.016 ~count ~scale:Grid.Linear)
  in
  let queries =
    let rng = rng ~seed:41L () in
    let log_range lo hi =
      lo *. exp (Nakamoto_prob.Rng.float rng *. log (hi /. lo))
    in
    List.init 40 (fun _ ->
        Params.create
          ~p:(log_range 1.6e-6 1.9e-6)
          ~n:(log_range 100. 140.)
          ~delta:(float_of_int (1800 + Nakamoto_prob.Rng.int rng ~bound:249))
          ~nu:(0.012 +. (Nakamoto_prob.Rng.float rng *. 0.004)))
  in
  let t = Table.build g in
  let _, _, full = Table.conclusive_counts t in
  check_true "at least half the cells fully conclusive"
    (full * 2 >= Grid.cell_count g);
  let hits =
    List.length
      (List.filter (fun p -> (Table.assess_cached t p).Assessment.v_cached) queries)
  in
  check_true "at least half the queries served cached"
    (hits * 2 >= List.length queries)

let suite =
  [
    case "grid indexing" test_grid_indexing;
    case "round-trip and --jobs byte-identity" test_roundtrip_and_job_invariance;
    case "corrupt surfaces rejected" test_load_rejects_corruption;
    case "cached answers agree with exact" test_cached_agrees_with_exact;
    case "telemetry hit/fallback counters" test_telemetry_counters;
    case "describe and header" test_describe_and_header;
    case "enumerable-Delta plateau coverage" test_enumerable_plateau_coverage;
  ]
