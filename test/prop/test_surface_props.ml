(* The surface differential tier: a certified table must never silently
   disagree with the exact solver.  Either a query is served cached —
   and then the zone, the confirmation depth, and the margin enclosure
   are all checked against a fresh exact assessment — or it carries an
   explicit fallback tag (and the fallback path ran the exact solver
   itself, so agreement is structural).

   The shared table sits on the confirmation-depth plateau around a
   rate ratio of 0.02-0.04 (see test_surface.ml); the point generator
   mixes in-box points with the full paper-scale parameter distribution
   so both the cached path and every fallback reason get exercised. *)

open Prop_helpers
module P = Nakamoto_proptest
module Gen = P.Gen
module Arbitrary = P.Arbitrary
module Grid = Nakamoto_surface.Grid
module Cert = Nakamoto_surface.Cert
module Table = Nakamoto_surface.Table
module Params = Nakamoto_core.Params
module Assessment = Nakamoto_core.Assessment
module Confirmation = Nakamoto_core.Confirmation
module Bounds = Nakamoto_core.Bounds
module I = Nakamoto_numerics.Interval

let box_p = (1.1e-4, 1.4e-4)
let box_n = (100., 140.)
let box_delta = (28., 36.)
let box_nu = (0.012, 0.016)

(* At epsilon = 1e-6 the same box spans depths 5-8; a smaller nu puts it
   on the depth-4 plateau (rate ratio ~0.0047-0.0125 against a band of
   0.0043-0.0132), where the certifier can conclude. *)
let strict_box_nu = (0.0025, 0.003)

let box_grid (nu_lo, nu_hi) =
  Grid.create
    ~p:(Grid.axis ~lo:(fst box_p) ~hi:(snd box_p) ~count:4 ~scale:Grid.Log)
    ~n:(Grid.axis ~lo:(fst box_n) ~hi:(snd box_n) ~count:4 ~scale:Grid.Log)
    ~delta:
      (Grid.axis ~lo:(fst box_delta) ~hi:(snd box_delta) ~count:4
         ~scale:Grid.Log)
    ~nu:
      (Grid.axis ~lo:nu_lo ~hi:nu_hi ~count:4 ~scale:Grid.Linear)

let table = lazy (Table.build (box_grid box_nu))

(* A non-default risk target: cached depths and the exact fallback must
   both answer at the table's epsilon. *)
let strict_table = lazy (Table.build ~epsilon:1e-6 (box_grid strict_box_nu))

let in_box_point nu rng =
  let draw (lo, hi) = Gen.float_range ~lo ~hi rng in
  Params.create ~p:(draw box_p) ~n:(draw box_n) ~delta:(draw box_delta)
    ~nu:(draw nu)

let global_point = Arbitrary.gen P.Domain_gen.params

(* 60% in-box (cached path and near-frontier fallbacks), 40% paper-scale
   (outside_box fallbacks at every scale). *)
let point_arb nu =
  Arbitrary.make
    ~print:(fun p -> Format.asprintf "%a" Params.pp p)
    (Gen.frequency [ (3, in_box_point nu); (2, global_point) ])

let exact_confirmations exact =
  Option.map
    (fun (c : Confirmation.assessment) -> c.Confirmation.confirmations)
    exact.Assessment.confirmations

let fallback_labels = [ "outside_box"; "zone_boundary"; "conf_boundary" ]

let show_depth = function Some z -> string_of_int z | None -> "none"

let differential_prop table (params : Params.t) =
  let t = Lazy.force table in
  let epsilon = Table.epsilon t in
  let v = Table.assess_cached t params in
  if v.Assessment.v_cached then begin
    let exact = Assessment.assess ~epsilon params in
    if v.Assessment.v_fallback <> None then
      failwith "cached verdict carries a fallback tag";
    if v.Assessment.v_zone <> exact.Assessment.zone then
      failwith
        (Printf.sprintf "cached zone %s but exact zone %s"
           (Assessment.zone_to_string v.Assessment.v_zone)
           (Assessment.zone_to_string exact.Assessment.zone));
    (match (v.Assessment.v_confirmations, exact_confirmations exact) with
    | Some a, Some b when a = b -> ()
    | None, None -> ()
    | a, b ->
      failwith
        (Printf.sprintf "cached depth %s but exact depth %s" (show_depth a)
           (show_depth b)));
    if
      not
        (v.Assessment.v_margin_lo <= exact.Assessment.neat_margin
        && exact.Assessment.neat_margin <= v.Assessment.v_margin_hi)
    then
      failwith
        (Printf.sprintf "exact margin %.17g outside certified [%.17g, %.17g]"
           exact.Assessment.neat_margin v.Assessment.v_margin_lo
           v.Assessment.v_margin_hi);
    if
      not
        (v.Assessment.v_margin_lo <= v.Assessment.v_margin
        && v.Assessment.v_margin <= v.Assessment.v_margin_hi)
    then failwith "interpolated margin outside its own enclosure"
  end
  else begin
    (* The fallback path already ran the exact solver — re-running all of
       it here would only double the suite's cost.  What must hold is the
       explicit tag, a degenerate (point) enclosure, and a depth searched
       at the table's epsilon (the search alone is cheap). *)
    let exact_depth =
      match Confirmation.assess_checked ~epsilon params with
      | Ok a -> Some a.Confirmation.confirmations
      | Error _ -> None
    in
    if v.Assessment.v_confirmations <> exact_depth then
      failwith
        (Printf.sprintf "fallback depth %s but exact depth %s at epsilon %g"
           (show_depth v.Assessment.v_confirmations)
           (show_depth exact_depth) epsilon);
    (match v.Assessment.v_fallback with
    | Some label when List.mem label fallback_labels -> ()
    | Some label -> failwith (Printf.sprintf "unknown fallback tag %S" label)
    | None -> failwith "uncached verdict with no fallback tag");
    if
      not
        (v.Assessment.v_margin_lo = v.Assessment.v_margin
        && v.Assessment.v_margin = v.Assessment.v_margin_hi)
    then failwith "fallback verdict enclosure is not degenerate"
  end

(* Enclosure soundness, cell by cell: the exact floats at any point of a
   cell must lie inside that cell's stored enclosures. *)
let cell_point_arb =
  let gen rng =
    let t = Lazy.force table in
    let g = Table.grid t in
    let id = Gen.int_range ~lo:0 ~hi:(Grid.cell_count g - 1) rng in
    let idx = Grid.cell_of_id g id in
    let axes = Grid.axes g in
    let draw d =
      let lo = Grid.vertex axes.(d) idx.(d)
      and hi = Grid.vertex axes.(d) (idx.(d) + 1) in
      Gen.float_range ~lo ~hi rng
    in
    (id, Params.create ~p:(draw 0) ~n:(draw 1) ~delta:(draw 2) ~nu:(draw 3))
  in
  Arbitrary.make
    ~print:(fun (id, p) -> Format.asprintf "cell %d, %a" id Params.pp p)
    gen

let enclosure_prop (id, (params : Params.t)) =
  let t = Lazy.force table in
  let cell = Table.cell t id in
  let nu = params.Params.nu in
  let contains what iv x =
    if not (I.contains iv x) then
      failwith
        (Printf.sprintf "%s %.17g outside enclosure [%.17g, %.17g]" what x
           (I.lo iv) (I.hi iv))
  in
  let neat = Bounds.neat_c_min ~nu in
  contains "margin" cell.Cert.margin (Params.c params -. neat);
  contains "neat threshold" cell.Cert.neat neat;
  contains "attack threshold" cell.Cert.attack
    (1. /. ((1. /. nu) -. (1. /. (1. -. nu))));
  match Confirmation.assess_checked params with
  | Ok a -> contains "rate ratio" cell.Cert.ratio a.Confirmation.rate_ratio
  | Error (Confirmation.Outside_consistency { rate_ratio })
  | Error (Confirmation.Depth_limited { rate_ratio; _ }) ->
    contains "rate ratio" cell.Cert.ratio rate_ratio
  | Error Confirmation.No_adversary -> ()

(* Monotone slices: c = 1/(p n Delta) falls as p grows, the neat
   threshold is constant in p, so the exact margin falls — and so must
   the interpolated estimate, which is a per-cell convex combination of
   exact vertex margins in monotone weights (continuous across faces
   through the shared vertices). *)
let slice_arb =
  let gen rng =
    let draw (lo, hi) = Gen.float_range ~lo ~hi rng in
    let p1 = draw box_p and p2 = draw box_p in
    ( (Float.min p1 p2, Float.max p1 p2),
      (draw box_n, draw box_delta, draw box_nu) )
  in
  Arbitrary.make
    ~print:(fun ((p1, p2), (n, delta, nu)) ->
      Printf.sprintf "p %.8g -> %.8g at n=%.6g delta=%.6g nu=%.6g" p1 p2 n
        delta nu)
    gen

let monotone_prop ((p1, p2), (n, delta, nu)) =
  let t = Lazy.force table in
  match
    (Table.lookup t ~p:p1 ~n ~delta ~nu, Table.lookup t ~p:p2 ~n ~delta ~nu)
  with
  | Ok a, Ok b ->
    if b.Table.h_margin > a.Table.h_margin +. 1e-12 then
      failwith
        (Printf.sprintf
           "margin estimate rose along p: %.17g at p=%.8g, %.17g at p=%.8g"
           a.Table.h_margin p1 b.Table.h_margin p2)
  | _ -> ()

(* Regeneration determinism on random boxes: the bytes are a pure
   function of the build inputs — across runs and across ~jobs. *)
let grid_arb =
  let axis_gen ~lo_lo ~lo_hi ~spread_hi ~log_ok rng =
    let lo = Gen.log_float_range ~lo:lo_lo ~hi:lo_hi rng in
    let hi = lo *. Gen.float_range ~lo:1.05 ~hi:spread_hi rng in
    let count = Gen.int_range ~lo:2 ~hi:3 rng in
    let scale =
      if log_ok && Gen.bool rng then Grid.Log else Grid.Linear
    in
    Grid.axis ~lo ~hi ~count ~scale
  in
  let gen rng =
    Grid.create
      ~p:(axis_gen ~lo_lo:1e-5 ~lo_hi:1e-3 ~spread_hi:2. ~log_ok:true rng)
      ~n:(axis_gen ~lo_lo:10. ~lo_hi:1e4 ~spread_hi:2. ~log_ok:true rng)
      ~delta:(axis_gen ~lo_lo:1. ~lo_hi:1e3 ~spread_hi:2. ~log_ok:true rng)
      ~nu:(axis_gen ~lo_lo:0.01 ~lo_hi:0.3 ~spread_hi:1.4 ~log_ok:false rng)
  in
  Arbitrary.make ~print:(fun g -> Table.describe (Table.build g)) gen

let determinism_prop g =
  let bytes = Table.to_string (Table.build ~jobs:1 g) in
  if Table.to_string (Table.build ~jobs:2 g) <> bytes then
    failwith "parallel rebuild changed the bytes";
  match Table.of_string bytes with
  | Error m -> failwith ("round-trip load failed: " ^ m)
  | Ok back ->
    if Table.to_string back <> bytes then
      failwith "decode/encode is not the identity"

let suite =
  [
    prop ~count:1000 "cached verdict equals exact or tags a fallback"
      (point_arb box_nu) (differential_prop table);
    prop ~count:300
      "cached verdict at epsilon 1e-6 equals exact or tags a fallback"
      (point_arb strict_box_nu)
      (differential_prop strict_table);
    prop ~count:300 "cell enclosures contain the exact floats" cell_point_arb
      enclosure_prop;
    prop ~count:200 "margin estimate falls along p" slice_arb monotone_prop;
    prop ~count:5 "rebuilds are byte-identical across jobs" grid_arb
      determinism_prop;
  ]
