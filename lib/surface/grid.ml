type scale = Linear | Log

type axis = { a_lo : float; a_hi : float; a_count : int; a_scale : scale }

let axis ~lo ~hi ~count ~scale =
  if not (Float.is_finite lo && Float.is_finite hi && lo < hi) then
    invalid_arg "Grid.axis: needs finite lo < hi";
  if count < 2 then invalid_arg "Grid.axis: needs at least 2 vertices";
  if scale = Log && lo <= 0. then
    invalid_arg "Grid.axis: log scale needs a positive lo";
  { a_lo = lo; a_hi = hi; a_count = count; a_scale = scale }

let vertex a i =
  (* Pin the endpoints exactly: the in-box test and the cell boxes must
     use lo/hi verbatim, not a float reconstruction of them. *)
  if i <= 0 then a.a_lo
  else if i >= a.a_count - 1 then a.a_hi
  else begin
    let t = float_of_int i /. float_of_int (a.a_count - 1) in
    match a.a_scale with
    | Linear -> a.a_lo +. ((a.a_hi -. a.a_lo) *. t)
    | Log -> a.a_lo *. ((a.a_hi /. a.a_lo) ** t)
  end

let cells a = a.a_count - 1

let locate a x =
  if not (x >= a.a_lo && x <= a.a_hi) then None
  else begin
    (* Counts are small (tables are a few dozen vertices per axis at
       most), so a linear scan beats binary search bookkeeping. *)
    let rec go j =
      if j >= a.a_count - 2 then a.a_count - 2
      else if x < vertex a (j + 1) then j
      else go (j + 1)
    in
    Some (go 0)
  end

let weight a j x =
  let v0 = vertex a j and v1 = vertex a (j + 1) in
  let t =
    match a.a_scale with
    | Linear -> (x -. v0) /. (v1 -. v0)
    | Log -> Stdlib.log (x /. v0) /. Stdlib.log (v1 /. v0)
  in
  Float.min 1. (Float.max 0. t)

(* Axis order is fixed: p, n, delta, nu. *)
let dims = 4

type t = { axes : axis array }

let create ~p ~n ~delta ~nu =
  if p.a_lo <= 0. || p.a_hi >= 1. then
    invalid_arg "Grid.create: p axis must lie inside (0, 1)";
  if n.a_lo < 4. then invalid_arg "Grid.create: n axis must start at >= 4";
  if delta.a_lo < 1. then
    invalid_arg "Grid.create: delta axis must start at >= 1";
  if nu.a_lo <= 0. || nu.a_hi >= 0.5 then
    invalid_arg "Grid.create: nu axis must lie inside (0, 1/2)";
  { axes = [| p; n; delta; nu |] }

let axes t = t.axes
let p_axis t = t.axes.(0)
let n_axis t = t.axes.(1)
let delta_axis t = t.axes.(2)
let nu_axis t = t.axes.(3)

let vertex_count t =
  Array.fold_left (fun acc a -> acc * a.a_count) 1 t.axes

let cell_count t = Array.fold_left (fun acc a -> acc * cells a) 1 t.axes

(* Row-major in axis order: the p index varies slowest, nu fastest. *)
let flatten counts idx =
  let acc = ref 0 in
  for d = 0 to dims - 1 do
    acc := (!acc * counts.(d)) + idx.(d)
  done;
  !acc

let unflatten counts id =
  let idx = Array.make dims 0 in
  let rem = ref id in
  for d = dims - 1 downto 0 do
    idx.(d) <- !rem mod counts.(d);
    rem := !rem / counts.(d)
  done;
  idx

let vertex_counts t = Array.map (fun a -> a.a_count) t.axes
let cell_counts t = Array.map cells t.axes
let vertex_id t idx = flatten (vertex_counts t) idx
let vertex_of_id t id = unflatten (vertex_counts t) id
let cell_id t idx = flatten (cell_counts t) idx
let cell_of_id t id = unflatten (cell_counts t) id

let vertex_coords t idx = Array.mapi (fun d i -> vertex t.axes.(d) i) idx

let locate_point t ~p ~n ~delta ~nu =
  let coords = [| p; n; delta; nu |] in
  let idx = Array.make dims 0 in
  let ok = ref true in
  for d = 0 to dims - 1 do
    match locate t.axes.(d) coords.(d) with
    | Some j -> idx.(d) <- j
    | None -> ok := false
  done;
  if !ok then Some idx else None
