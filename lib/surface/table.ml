module I = Nakamoto_numerics.Interval
module Params = Nakamoto_core.Params
module Bounds = Nakamoto_core.Bounds
module Assessment = Nakamoto_core.Assessment

type t = {
  grid : Grid.t;
  epsilon : float;
  vertex_margin : float array;
  cells : Cert.cell array;
}

let grid t = t.grid
let epsilon t = t.epsilon

(* ---------- build ---------- *)

(* The vertex layer stores the exact solver's own neat margin (same
   float expression as Assessment.assess: [Params.c - Bounds.neat_c_min])
   so interpolated estimates are anchored to exact values — and, because
   each corner lies inside its cells' boxes, every corner value lies in
   the adjacent cells' margin enclosures, hence so does any convex
   interpolation of them. *)
let exact_margin ~p ~n ~delta ~nu =
  let params = Params.create ~n ~delta ~p ~nu in
  Params.c params -. Bounds.neat_c_min ~nu

let certify_cell grid ~epsilon ~conf_limit ~refine id =
  let idx = Grid.cell_of_id grid id in
  let axes = Grid.axes grid in
  let box d =
    I.make
      ~lo:(Grid.vertex axes.(d) idx.(d))
      ~hi:(Grid.vertex axes.(d) (idx.(d) + 1))
  in
  Cert.certify ~refine ~epsilon ~conf_limit ~p:(box 0) ~n:(box 1)
    ~delta:(box 2) ~nu:(box 3)

let build ?(epsilon = 1e-3) ?(conf_limit = 256) ?(refine = 2) grid =
  if not (epsilon >= Nakamoto_core.Confirmation.min_epsilon && epsilon < 1.)
  then invalid_arg "Table.build: epsilon must lie in [1e-9, 1)";
  if conf_limit < 1 then invalid_arg "Table.build: conf_limit must be >= 1";
  if refine < 1 then invalid_arg "Table.build: refine must be >= 1";
  let vertex_margin =
    Array.init (Grid.vertex_count grid) (fun id ->
        let coords = Grid.vertex_coords grid (Grid.vertex_of_id grid id) in
        exact_margin ~p:coords.(0) ~n:coords.(1) ~delta:coords.(2)
          ~nu:coords.(3))
  in
  let cells =
    Array.init (Grid.cell_count grid)
      (certify_cell grid ~epsilon ~conf_limit ~refine)
  in
  { grid; epsilon; vertex_margin; cells }

(* ---------- queries ---------- *)

type fallback_reason = Outside_box | Zone_boundary | Conf_boundary

let fallback_label = function
  | Outside_box -> "outside_box"
  | Zone_boundary -> "zone_boundary"
  | Conf_boundary -> "conf_boundary"

let interpolate t idx coords =
  let axes = Grid.axes t.grid in
  let w =
    Array.init Grid.dims (fun d -> Grid.weight axes.(d) idx.(d) coords.(d))
  in
  let acc = ref 0. in
  let widx = Array.make Grid.dims 0 in
  for corner = 0 to (1 lsl Grid.dims) - 1 do
    let wt = ref 1. in
    for d = 0 to Grid.dims - 1 do
      let bit = (corner lsr d) land 1 in
      widx.(d) <- idx.(d) + bit;
      wt := !wt *. (if bit = 1 then w.(d) else 1. -. w.(d))
    done;
    acc := !acc +. (!wt *. t.vertex_margin.(Grid.vertex_id t.grid widx))
  done;
  !acc

type hit = { h_cell : Cert.cell; h_margin : float }

let lookup t ~p ~n ~delta ~nu =
  match Grid.locate_point t.grid ~p ~n ~delta ~nu with
  | None -> Error Outside_box
  | Some idx -> begin
    let cell = t.cells.(Grid.cell_id t.grid idx) in
    match (cell.Cert.zone, cell.Cert.conf) with
    | Cert.Zone_inconclusive, _ -> Error Zone_boundary
    | _, Cert.Conf_inconclusive -> Error Conf_boundary
    | _ ->
      Ok { h_cell = cell; h_margin = interpolate t idx [| p; n; delta; nu |] }
  end

let assess_cached t (params : Params.t) =
  match
    lookup t ~p:params.Params.p ~n:params.Params.n ~delta:params.Params.delta
      ~nu:params.Params.nu
  with
  | Ok h ->
    let zone =
      match h.h_cell.Cert.zone with
      | Cert.Zone z -> z
      | Cert.Zone_inconclusive -> assert false
    in
    let confirmations, conf_reason =
      match h.h_cell.Cert.conf with
      | Cert.Conf z -> (Some z, None)
      | Cert.Conf_none -> (None, Some "outside_consistency")
      | Cert.Conf_inconclusive -> assert false
    in
    {
      Assessment.v_params = params;
      v_zone = zone;
      v_margin = h.h_margin;
      v_margin_lo = I.lo h.h_cell.Cert.margin;
      v_margin_hi = I.hi h.h_cell.Cert.margin;
      v_confirmations = confirmations;
      v_conf_reason = conf_reason;
      v_cached = true;
      v_fallback = None;
    }
  | Error reason ->
    let v =
      Assessment.verdict_of (Assessment.assess ~epsilon:t.epsilon params)
    in
    { v with Assessment.v_fallback = Some (fallback_label reason) }

(* ---------- introspection ---------- *)

let cell t id = t.cells.(id)

let conclusive_counts t =
  let zones = ref 0 and confs = ref 0 and full = ref 0 in
  Array.iter
    (fun (cell : Cert.cell) ->
      let z = cell.Cert.zone <> Cert.Zone_inconclusive in
      let c = cell.Cert.conf <> Cert.Conf_inconclusive in
      if z then incr zones;
      if c then incr confs;
      if z && c then incr full)
    t.cells;
  (!zones, !confs, !full)
