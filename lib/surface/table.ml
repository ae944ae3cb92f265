module I = Nakamoto_numerics.Interval
module Params = Nakamoto_core.Params
module Bounds = Nakamoto_core.Bounds
module Assessment = Nakamoto_core.Assessment
module Json = Nakamoto_campaign.Json
module Worker_pool = Nakamoto_campaign.Worker_pool
module Rng = Nakamoto_prob.Rng
module Tel = Nakamoto_telemetry

type t = {
  grid : Grid.t;
  epsilon : float;
  conf_limit : int;
  refine : int;
  fingerprint : int64;
  vertex_margin : float array;
  cells : Cert.cell array;
}

let grid t = t.grid
let epsilon t = t.epsilon
let conf_limit t = t.conf_limit
let refine t = t.refine
let fingerprint t = t.fingerprint

let default_epsilon = 1e-3
let default_conf_limit = 256
let default_refine = 2

(* ---------- header JSON + fingerprint ---------- *)

let hash_string ?(seed = 0x6E616B616D6F746FL) s =
  (* Spec.fingerprint's fold: SplitMix64 over the canonical bytes. *)
  let acc = ref seed in
  String.iter
    (fun ch ->
      acc := Rng.splitmix64 (Int64.logxor !acc (Int64.of_int (Char.code ch))))
    s;
  !acc

let magic = "NAKSURF1"
let version = 1
let vertex_bytes = 8
let cell_bytes = 70

let axis_json (a : Grid.axis) =
  Json.Obj
    [
      ("lo", Json.Num (Json.float_str a.Grid.a_lo));
      ("hi", Json.Num (Json.float_str a.Grid.a_hi));
      ("count", Json.Num (string_of_int a.Grid.a_count));
      ("scale", Json.Str (Grid.scale_name a.Grid.a_scale));
    ]

let header_core ~grid ~epsilon ~conf_limit ~refine =
  Json.Obj
    [
      ("surface", Json.Str "nakamoto-assessment-surface");
      ("version", Json.Num (string_of_int version));
      ( "axes",
        Json.Obj
          [
            ("p", axis_json (Grid.p_axis grid));
            ("n", axis_json (Grid.n_axis grid));
            ("delta", axis_json (Grid.delta_axis grid));
            ("nu", axis_json (Grid.nu_axis grid));
          ] );
      ("epsilon", Json.Num (Json.float_str epsilon));
      ("conf_limit", Json.Num (string_of_int conf_limit));
      ("refine", Json.Num (string_of_int refine));
      ("vertices", Json.Num (string_of_int (Grid.vertex_count grid)));
      ("cells", Json.Num (string_of_int (Grid.cell_count grid)));
    ]

(* The fingerprint hashes the canonical header-without-fingerprint:
   any build input that changes the table changes these bytes. *)
let fingerprint_of ~grid ~epsilon ~conf_limit ~refine =
  hash_string (Json.render (header_core ~grid ~epsilon ~conf_limit ~refine))

let header_json t =
  match
    header_core ~grid:t.grid ~epsilon:t.epsilon ~conf_limit:t.conf_limit
      ~refine:t.refine
  with
  | Json.Obj fields ->
    Json.render
      (Json.Obj
         (fields @ [ ("fingerprint", Json.Str (Int64.to_string t.fingerprint)) ]))
  | _ -> assert false

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

let build ?(jobs = 1) ?(epsilon = default_epsilon)
    ?(conf_limit = default_conf_limit) ?(refine = default_refine) grid =
  if jobs < 1 then invalid_arg "Table.build: jobs must be >= 1";
  if not (epsilon >= Nakamoto_core.Confirmation.min_epsilon && epsilon < 1.)
  then invalid_arg "Table.build: epsilon must lie in [1e-9, 1)";
  if conf_limit < 1 then invalid_arg "Table.build: conf_limit must be >= 1";
  if refine < 1 then invalid_arg "Table.build: refine must be >= 1";
  let nv = Grid.vertex_count grid in
  let vertex_margin =
    Array.init nv (fun id ->
        let coords = Grid.vertex_coords grid (Grid.vertex_of_id grid id) in
        exact_margin ~p:coords.(0) ~n:coords.(1) ~delta:coords.(2)
          ~nu:coords.(3))
  in
  let nc = Grid.cell_count grid in
  let cells =
    if jobs = 1 then
      Array.init nc (certify_cell grid ~epsilon ~conf_limit ~refine)
    else begin
      (* Each chunk is a pure function of its cell ids and results come
         back in task order, so the cell array — and therefore the
         serialized bytes — cannot depend on [jobs] or scheduling. *)
      let chunk = 16 in
      let ntasks = (nc + chunk - 1) / chunk in
      let chunks =
        Worker_pool.run ~jobs
          (fun ~worker:_ task ->
            let start = task * chunk in
            let stop = min nc (start + chunk) in
            Array.init (stop - start) (fun i ->
                certify_cell grid ~epsilon ~conf_limit ~refine (start + i)))
          (Array.init ntasks Fun.id)
      in
      Array.concat (Array.to_list chunks)
    end
  in
  {
    grid;
    epsilon;
    conf_limit;
    refine;
    fingerprint = fingerprint_of ~grid ~epsilon ~conf_limit ~refine;
    vertex_margin;
    cells;
  }

(* ---------- serialization ---------- *)

let zone_code = function
  | Cert.Zone Assessment.Safe -> 0
  | Cert.Zone Assessment.Gap -> 1
  | Cert.Zone Assessment.Broken -> 2
  | Cert.Zone_inconclusive -> 3

let zone_of_code = function
  | 0 -> Some (Cert.Zone Assessment.Safe)
  | 1 -> Some (Cert.Zone Assessment.Gap)
  | 2 -> Some (Cert.Zone Assessment.Broken)
  | 3 -> Some Cert.Zone_inconclusive
  | _ -> None

let add_f64 buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let add_interval buf iv =
  add_f64 buf (I.lo iv);
  add_f64 buf (I.hi iv)

let to_string t =
  let header = header_json t in
  let nv = Array.length t.vertex_margin in
  let nc = Array.length t.cells in
  let buf =
    Buffer.create
      (String.length header + 20 + (nv * vertex_bytes) + (nc * cell_bytes))
  in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int (String.length header));
  Buffer.add_string buf header;
  Array.iter (fun m -> add_f64 buf m) t.vertex_margin;
  Array.iter
    (fun (cell : Cert.cell) ->
      Buffer.add_uint8 buf (zone_code cell.Cert.zone);
      let conf_state, conf_z =
        match cell.Cert.conf with
        | Cert.Conf z -> (0, z)
        | Cert.Conf_none -> (1, 0)
        | Cert.Conf_inconclusive -> (2, 0)
      in
      Buffer.add_uint8 buf conf_state;
      Buffer.add_int32_le buf (Int32.of_int conf_z);
      add_interval buf cell.Cert.margin;
      add_interval buf cell.Cert.neat;
      add_interval buf cell.Cert.attack;
      add_interval buf cell.Cert.ratio)
    t.cells;
  let body = Buffer.contents buf in
  let trailer = Buffer.create 8 in
  Buffer.add_int64_le trailer (hash_string body);
  body ^ Buffer.contents trailer

let parse_axis j =
  let lo = Json.to_float (Json.member j "lo") in
  let hi = Json.to_float (Json.member j "hi") in
  let count = Json.to_int (Json.member j "count") in
  let scale =
    match Grid.scale_of_name (Json.to_string (Json.member j "scale")) with
    | Some s -> s
    | None -> raise (Json.Malformed "unknown axis scale")
  in
  Grid.axis ~lo ~hi ~count ~scale

let of_string s =
  let fail msg = Error (Printf.sprintf "Surface.Table: %s" msg) in
  let len = String.length s in
  if len < 20 then fail "truncated (no header)"
  else if String.sub s 0 8 <> magic then fail "bad magic (not a surface file)"
  else begin
    let hlen = Int32.to_int (String.get_int32_le s 8) in
    if hlen < 2 || 12 + hlen > len then fail "truncated header"
    else begin
      match
        let header = String.sub s 12 hlen in
        let j = Json.parse header in
        if
          Json.to_string (Json.member j "surface")
          <> "nakamoto-assessment-surface"
        then failwith "not an assessment surface";
        if Json.to_int (Json.member j "version") <> version then
          failwith "unsupported surface version";
        let axes = Json.member j "axes" in
        let grid =
          Grid.create
            ~p:(parse_axis (Json.member axes "p"))
            ~n:(parse_axis (Json.member axes "n"))
            ~delta:(parse_axis (Json.member axes "delta"))
            ~nu:(parse_axis (Json.member axes "nu"))
        in
        let epsilon = Json.to_float (Json.member j "epsilon") in
        let conf_limit = Json.to_int (Json.member j "conf_limit") in
        let refine = Json.to_int (Json.member j "refine") in
        let nv = Json.to_int (Json.member j "vertices") in
        let nc = Json.to_int (Json.member j "cells") in
        if nv <> Grid.vertex_count grid || nc <> Grid.cell_count grid then
          failwith "header counts disagree with the axes";
        let declared = Json.to_int64_string (Json.member j "fingerprint") in
        if declared <> fingerprint_of ~grid ~epsilon ~conf_limit ~refine then
          failwith "fingerprint mismatch";
        let voff = 12 + hlen in
        let coff = voff + (nv * vertex_bytes) in
        let troff = coff + (nc * cell_bytes) in
        if troff + 8 <> len then failwith "truncated or oversized body";
        let body_hash = hash_string (String.sub s 0 troff) in
        if String.get_int64_le s troff <> body_hash then
          failwith "content hash mismatch (corrupt body)";
        let f64 off = Int64.float_of_bits (String.get_int64_le s off) in
        let vertex_margin =
          Array.init nv (fun i -> f64 (voff + (i * vertex_bytes)))
        in
        let cells =
          Array.init nc (fun i ->
              let off = coff + (i * cell_bytes) in
              let zone =
                match zone_of_code (Char.code s.[off]) with
                | Some z -> z
                | None -> failwith "bad zone code"
              in
              let conf =
                match Char.code s.[off + 1] with
                | 0 ->
                  Cert.Conf (Int32.to_int (String.get_int32_le s (off + 2)))
                | 1 -> Cert.Conf_none
                | 2 -> Cert.Conf_inconclusive
                | _ -> failwith "bad confirmation code"
              in
              let iv k =
                let base = off + 6 + (16 * k) in
                I.make ~lo:(f64 base) ~hi:(f64 (base + 8))
              in
              {
                Cert.zone;
                conf;
                margin = iv 0;
                neat = iv 1;
                attack = iv 2;
                ratio = iv 3;
              })
        in
        {
          grid;
          epsilon;
          conf_limit;
          refine;
          fingerprint = declared;
          vertex_margin;
          cells;
        }
      with
      | t -> Ok t
      | exception Json.Malformed msg -> fail ("malformed header: " ^ msg)
      | exception Failure msg -> fail msg
      | exception Invalid_argument msg -> fail msg
    end
  end

let save t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error msg -> Error (Printf.sprintf "Surface.Table: %s" msg)

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

let assess_cached ?telemetry t (params : Params.t) =
  let count_hit () =
    match telemetry with
    | Some r -> Tel.Counter.incr (Tel.Registry.counter r "surface_hits_total")
    | None -> ()
  in
  let count_fallback reason =
    match telemetry with
    | Some r ->
      Tel.Counter.incr
        (Tel.Registry.counter r
           ~labels:[ ("reason", fallback_label reason) ]
           "surface_fallbacks_total")
    | None -> ()
  in
  match
    lookup t ~p:params.Params.p ~n:params.Params.n ~delta:params.Params.delta
      ~nu:params.Params.nu
  with
  | Ok h ->
    count_hit ();
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
    count_fallback reason;
    let v =
      Assessment.verdict_of (Assessment.assess ~epsilon:t.epsilon params)
    in
    { v with Assessment.v_fallback = Some (fallback_label reason) }

(* ---------- reporting ---------- *)

let cell t id = t.cells.(id)
let vertex_margin t id = t.vertex_margin.(id)

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

let describe t =
  let zones, confs, full = conclusive_counts t in
  Printf.sprintf
    "%d vertices, %d cells (%d zone-certified, %d conf-certified, %d fully \
     conclusive), epsilon %g, conf_limit %d, refine %d, fingerprint %Ld"
    (Grid.vertex_count t.grid) (Grid.cell_count t.grid) zones confs full
    t.epsilon t.conf_limit t.refine t.fingerprint
