module Linalg = Nakamoto_numerics.Linalg

type t = {
  size : int;
  rows : (int * float) array array;
  labels : int -> string;
}

let validate_rows ~size rows =
  if Array.length rows <> size then
    invalid_arg "Chain.create: rows array length differs from size";
  Array.iteri
    (fun i row ->
      let total = ref 0. in
      List.iter
        (fun (j, p) ->
          if j < 0 || j >= size then
            invalid_arg
              (Printf.sprintf "Chain.create: row %d targets out-of-range state %d"
                 i j);
          if p < 0. || not (Float.is_finite p) then
            invalid_arg
              (Printf.sprintf "Chain.create: row %d has invalid probability" i);
          total := !total +. p)
        row;
      if Float.abs (!total -. 1.) > 1e-9 then
        invalid_arg
          (Printf.sprintf "Chain.create: row %d sums to %.17g, not 1" i !total))
    rows

let create ?(labels = string_of_int) ~size ~rows () =
  if size <= 0 then invalid_arg "Chain.create: size must be positive";
  validate_rows ~size rows;
  { size; rows = Array.map Array.of_list rows; labels }

let size t = t.size
let label t i = t.labels i
let row t i = Array.to_list t.rows.(i)

let probability t ~src ~dst =
  if src < 0 || src >= t.size then invalid_arg "Chain.probability: bad src";
  Array.fold_left
    (fun acc (j, p) -> if j = dst then acc +. p else acc)
    0. t.rows.(src)

let support_succ t i =
  Array.to_list t.rows.(i)
  |> List.filter_map (fun (j, p) -> if p > 0. then Some j else None)

let is_irreducible t =
  Structure.is_strongly_connected ~succ:(support_succ t) ~n:t.size

let period t = Structure.period ~succ:(support_succ t) ~n:t.size ~start:0
let is_ergodic t = is_irreducible t && period t = 1

let step_distribution t d =
  if Array.length d <> t.size then
    invalid_arg "Chain.step_distribution: size mismatch";
  let out = Array.make t.size 0. in
  for i = 0 to t.size - 1 do
    let di = d.(i) in
    if di <> 0. then
      Array.iter (fun (j, p) -> out.(j) <- out.(j) +. (di *. p)) t.rows.(i)
  done;
  out

let stationary_power_iteration ?(tol = 1e-14) ?(max_iter = 1_000_000) t =
  let d = ref (Array.make t.size (1. /. float_of_int t.size)) in
  let rec iterate k ~last_change =
    if k > max_iter then
      failwith
        (Printf.sprintf
           "Chain.stationary_power_iteration: did not converge within %d \
            iterations (tol %.3g, last L1 residual %.3g); the chain may be \
            periodic or the gap too small for this tol"
           max_iter tol last_change);
    let next = step_distribution t !d in
    let change =
      let acc = ref 0. in
      for i = 0 to t.size - 1 do
        acc := !acc +. Float.abs (next.(i) -. !d.(i))
      done;
      !acc
    in
    d := next;
    if change > tol then iterate (k + 1) ~last_change:change
  in
  iterate 0 ~last_change:infinity;
  Linalg.normalize_l1 !d

let to_sparse t =
  Sparse.of_fn ~rows:t.size ~cols:t.size (fun i -> Array.to_list t.rows.(i))

let sparse_crossover = 512

let stationary_sparse ?telemetry t =
  let sp = to_sparse t in
  match Sparse.stationary_censor ?telemetry sp with
  | Some pi -> pi
  | None -> Sparse.stationary_power ?telemetry sp

let stationary_linear_solve t =
  (* Solve pi P = pi with sum(pi) = 1: build A = P^T - I, replace the last
     equation with the all-ones normalization row. *)
  let n = t.size in
  let a = Linalg.make ~rows:n ~cols:n 0. in
  for i = 0 to n - 1 do
    Array.iter (fun (j, p) -> a.(j).(i) <- a.(j).(i) +. p) t.rows.(i)
  done;
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) -. 1.
  done;
  let b = Array.make n 0. in
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- 1.
  done;
  b.(n - 1) <- 1.;
  let pi = Linalg.solve a b in
  Linalg.normalize_l1 pi

let stationary_auto ?telemetry t =
  if t.size <= sparse_crossover then stationary_linear_solve t
  else stationary_sparse ?telemetry t

let total_variation a b =
  if Array.length a <> Array.length b then
    invalid_arg "Chain.total_variation: length mismatch";
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. b.(i))) a;
  0.5 *. !acc

let mixing_time ?(epsilon = 0.125) ?(horizon = 100_000) t =
  let pi = stationary_linear_solve t in
  (* March all point-mass starts forward together; stop at the first step
     where the worst start is epsilon-close to stationary. *)
  let dists =
    Array.init t.size (fun i ->
        Array.init t.size (fun j -> if i = j then 1. else 0.))
  in
  let worst () =
    Array.fold_left (fun acc d -> Float.max acc (total_variation d pi)) 0. dists
  in
  let rec advance s =
    if worst () <= epsilon then Some s
    else if s >= horizon then None
    else begin
      Array.iteri (fun i d -> dists.(i) <- step_distribution t d) dists;
      advance (s + 1)
    end
  in
  advance 0

let sample_row rng row =
  let u = Nakamoto_prob.Rng.float rng in
  let n = Array.length row in
  let rec pick i acc =
    if i >= n - 1 then fst row.(n - 1)
    else
      let j, p = row.(i) in
      if u < acc +. p then j else pick (i + 1) (acc +. p)
  in
  pick 0 0.

let simulate ~rng t ~start ~steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.simulate: bad start";
  if steps < 0 then invalid_arg "Chain.simulate: negative steps";
  let out = Array.make (max steps 1) start in
  let current = ref start in
  for s = 0 to steps - 1 do
    current := sample_row rng t.rows.(!current);
    out.(s) <- !current
  done;
  if steps = 0 then [||] else out

let occupancy ~rng t ~start ~steps ~target =
  let trajectory = simulate ~rng t ~start ~steps in
  Array.fold_left (fun acc s -> if target s then acc + 1 else acc) 0 trajectory
