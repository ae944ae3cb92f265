open Helpers
module Grid = Nakamoto_surface.Grid
module Cert = Nakamoto_surface.Cert
module Table = Nakamoto_surface.Table
module Params = Nakamoto_core.Params
module Assessment = Nakamoto_core.Assessment
module I = Nakamoto_numerics.Interval

(* A 3x3x3x3-vertex box (16 cells) whose c spans roughly 0.2 .. 14:
   cells on every side of both frontiers.  Cells this coarse (a factor
   of 8 in c each) rarely certify — they exercise the fallback paths. *)
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

(* The hit and fallback paths of [assess_cached].  The name predates
   the removal of the surface counters; the tags are what remain. *)
let test_telemetry_counters () =
  let g = fine_safe_grid () in
  let t = Table.build g in
  (* Outside the box on every axis. *)
  let outside = Params.create ~p:1e-3 ~n:1000. ~delta:4. ~nu:0.3 in
  let v = Table.assess_cached t outside in
  check_true "outside-box falls back"
    (v.Assessment.v_fallback = Some "outside_box");
  check_false "fallback is not cached" v.Assessment.v_cached;
  (* A safe interior point of the fine grid, inside a certified cell. *)
  let inside = Params.create ~p:1.15e-4 ~n:105. ~delta:29. ~nu:0.014 in
  let v = Table.assess_cached t inside in
  check_true "interior point is served from the table" v.Assessment.v_cached;
  check_true "cached verdict equals exact"
    (v.Assessment.v_zone = (Assessment.assess inside).Assessment.zone)

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

(* The certifier's output on the 3^4-vertex smoke box, pinned bit for
   bit: each cell's zone and depth verdict, the conclusive counts, the
   bits of every margin enclosure, and a fold of the bits of the other
   three enclosures.  A change to Cert's operation trees or its outward
   rounding shows up here. *)
let smoke_grid () =
  Grid.create
    ~p:(Grid.axis ~lo:1.1e-4 ~hi:1.4e-4 ~count:3 ~scale:Grid.Log)
    ~n:(Grid.axis ~lo:100. ~hi:140. ~count:3 ~scale:Grid.Log)
    ~delta:(Grid.axis ~lo:28. ~hi:36. ~count:3 ~scale:Grid.Log)
    ~nu:(Grid.axis ~lo:0.012 ~hi:0.016 ~count:3 ~scale:Grid.Linear)

let cell_state (cell : Cert.cell) =
  let zone =
    match cell.Cert.zone with
    | Cert.Zone z -> Assessment.zone_to_string z
    | Cert.Zone_inconclusive -> "?"
  in
  let conf =
    match cell.Cert.conf with
    | Cert.Conf z -> string_of_int z
    | Cert.Conf_none -> "none"
    | Cert.Conf_inconclusive -> "?"
  in
  zone ^ "/" ^ conf

let fold_bits acc x =
  Nakamoto_prob.Rng.splitmix64 (Int64.logxor acc (Int64.bits_of_float x))

let test_smoke_box_pinned () =
  let g = smoke_grid () in
  let t = Table.build g in
  let cells = List.init (Grid.cell_count g) (Table.cell t) in
  Alcotest.(check (list string))
    "cell zone/depth verdicts"
    ("SAFE/3" :: List.init 15 (fun _ -> "SAFE/?"))
    (List.map cell_state cells);
  let zones, confs, full = Table.conclusive_counts t in
  Alcotest.(check (list int)) "conclusive counts" [ 16; 1; 1 ]
    [ zones; confs; full ];
  Alcotest.(check (list string))
    "margin enclosure bits"
    [
      "0x1.ae3f1e248796ap+0 0x1.665b77dff4419p+1";
      "0x1.aa95080658563p+0 0x1.6460802f86281p+1";
      "0x1.6d66f517b1b59p+0 0x1.3548acc821136p+1";
      "0x1.69bcdef982752p+0 0x1.334db517b2f9ep+1";
      "0x1.5936d0b705a01p+0 0x1.26017d6053effp+1";
      "0x1.558cba98d65fap+0 0x1.240685afe5d67p+1";
      "0x1.22691e801605dp+0 0x1.f90ffba7dbe52p+0";
      "0x1.1ebf0861e6c56p+0 0x1.f51a0c46ffb23p+0";
      "0x1.6fdde7ae75caep+0 0x1.37262b0d8ef7ap+1";
      "0x1.6c33d190468a7p+0 0x1.352b335d20de2p+1";
      "0x1.36636f7fed1a5p+0 0x1.0ba6712c2b6fp+1";
      "0x1.32b95961bdd9ep+0 0x1.09ab797bbd558p+1";
      "0x1.247e5e00ec3aap+0 0x1.fc37180bb337ap+0";
      "0x1.20d447e2bcfa3p+0 0x1.f84128aad704bp+0";
      "0x1.e7d4bdd07fb3dp-1 0x1.b2b0480695adap+0";
      "0x1.e08091942132fp-1 0x1.aeba58a5b97abp+0";
    ]
    (List.map
       (fun (cell : Cert.cell) ->
         Printf.sprintf "%h %h" (I.lo cell.Cert.margin) (I.hi cell.Cert.margin))
       cells);
  let other =
    List.fold_left
      (fun acc (cell : Cert.cell) ->
        List.fold_left
          (fun acc iv -> fold_bits (fold_bits acc (I.lo iv)) (I.hi iv))
          acc
          [ cell.Cert.neat; cell.Cert.attack; cell.Cert.ratio ])
      0L cells
  in
  Alcotest.(check int64)
    "neat/attack/ratio enclosure bits" 8756476321096059578L other

let test_grid_rejects_bad_boxes () =
  let ok = Grid.axis ~lo:0.1 ~hi:0.2 ~count:2 ~scale:Grid.Linear in
  check_raises_invalid "lo = hi" (fun () ->
      ignore (Grid.axis ~lo:1. ~hi:1. ~count:2 ~scale:Grid.Linear));
  check_raises_invalid "non-finite hi" (fun () ->
      ignore (Grid.axis ~lo:1. ~hi:infinity ~count:2 ~scale:Grid.Linear));
  check_raises_invalid "one vertex" (fun () ->
      ignore (Grid.axis ~lo:1. ~hi:2. ~count:1 ~scale:Grid.Linear));
  check_raises_invalid "log axis through 0" (fun () ->
      ignore (Grid.axis ~lo:0. ~hi:2. ~count:2 ~scale:Grid.Log));
  let box ?(p = Grid.axis ~lo:1e-4 ~hi:2e-4 ~count:2 ~scale:Grid.Log)
      ?(n = Grid.axis ~lo:100. ~hi:200. ~count:2 ~scale:Grid.Log) ?(nu = ok)
      () =
    ignore
      (Grid.create ~p ~n
         ~delta:(Grid.axis ~lo:10. ~hi:20. ~count:2 ~scale:Grid.Log)
         ~nu)
  in
  box ();
  check_raises_invalid "nu = 0 takes the exact path" (fun () ->
      box ~nu:(Grid.axis ~lo:0. ~hi:0.2 ~count:2 ~scale:Grid.Linear) ());
  check_raises_invalid "nu reaching 1/2" (fun () ->
      box ~nu:(Grid.axis ~lo:0.1 ~hi:0.5 ~count:2 ~scale:Grid.Linear) ());
  check_raises_invalid "n below 4" (fun () ->
      box ~n:(Grid.axis ~lo:2. ~hi:200. ~count:2 ~scale:Grid.Log) ());
  check_raises_invalid "p reaching 1" (fun () ->
      box ~p:(Grid.axis ~lo:0.5 ~hi:1. ~count:2 ~scale:Grid.Log) ())

let test_build_rejects_bad_arguments () =
  let g = small_grid () in
  check_raises_invalid "epsilon below the exact floor" (fun () ->
      ignore (Table.build ~epsilon:1e-10 g));
  check_raises_invalid "epsilon of 1" (fun () ->
      ignore (Table.build ~epsilon:1. g));
  check_raises_invalid "conf_limit 0" (fun () ->
      ignore (Table.build ~conf_limit:0 g));
  check_raises_invalid "refine 0" (fun () -> ignore (Table.build ~refine:0 g))

let suite =
  [
    case "grid indexing" test_grid_indexing;
    case "certifier pinned on the smoke box" test_smoke_box_pinned;
    case "grid rejects malformed axes and boxes" test_grid_rejects_bad_boxes;
    case "cached answers agree with exact" test_cached_agrees_with_exact;
    case "telemetry hit/fallback counters" test_telemetry_counters;
    case "build rejects out-of-range arguments"
      test_build_rejects_bad_arguments;
    case "enumerable-Delta plateau coverage" test_enumerable_plateau_coverage;
  ]
