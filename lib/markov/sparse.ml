module Linalg = Nakamoto_numerics.Linalg
module Registry = Nakamoto_telemetry.Registry
module Span = Nakamoto_telemetry.Span
module Counter = Nakamoto_telemetry.Counter

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (* length rows + 1 *)
  col_idx : int array;  (* length nnz, ascending within each row *)
  values : float array;  (* length nnz *)
}

let rows t = t.rows
let cols t = t.cols
let nnz t = Array.length t.values

(* Sort a row's entries by column, sum duplicates, drop exact zeros. *)
let coalesce ~cols row_index entries =
  List.iter
    (fun (j, v) ->
      if j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.create: row %d targets out-of-range column %d"
             row_index j);
      if not (Float.is_finite v) then
        invalid_arg
          (Printf.sprintf "Sparse.create: row %d has a non-finite value"
             row_index))
    entries;
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) entries
  in
  let rec merge = function
    | (j1, v1) :: (j2, v2) :: rest when j1 = j2 -> merge ((j1, v1 +. v2) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  List.filter (fun (_, v) -> v <> 0.) (merge sorted)

let of_fn ~rows ~cols f =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.create: negative dimension";
  let row_ptr = Array.make (rows + 1) 0 in
  (* Two passes keep peak memory at one row of cons cells beyond the CSR
     arrays themselves — the band-aware generators re-emit each row. *)
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + List.length (coalesce ~cols i (f i))
  done;
  let n = row_ptr.(rows) in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0. in
  for i = 0 to rows - 1 do
    List.iteri
      (fun k (j, v) ->
        col_idx.(row_ptr.(i) + k) <- j;
        values.(row_ptr.(i) + k) <- v)
      (coalesce ~cols i (f i))
  done;
  { rows; cols; row_ptr; col_idx; values }

let create ~rows ~cols ~entries =
  if Array.length entries <> rows then
    invalid_arg "Sparse.create: entries array length differs from rows";
  of_fn ~rows ~cols (fun i -> entries.(i))

let of_dense m =
  let r, c = Linalg.dims m in
  of_fn ~rows:r ~cols:c (fun i ->
      let row = ref [] in
      for j = c - 1 downto 0 do
        if m.(i).(j) <> 0. then row := (j, m.(i).(j)) :: !row
      done;
      !row)

let to_dense t =
  let m = Linalg.make ~rows:t.rows ~cols:t.cols 0. in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      m.(i).(t.col_idx.(k)) <- m.(i).(t.col_idx.(k)) +. t.values.(k)
    done
  done;
  m

let row t i =
  if i < 0 || i >= t.rows then invalid_arg "Sparse.row: index out of range";
  let out = ref [] in
  for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
    out := (t.col_idx.(k), t.values.(k)) :: !out
  done;
  !out

let transpose t =
  let counts = Array.make t.cols 0 in
  Array.iter (fun j -> counts.(j) <- counts.(j) + 1) t.col_idx;
  let row_ptr = Array.make (t.cols + 1) 0 in
  for j = 0 to t.cols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j) + counts.(j)
  done;
  let pos = Array.sub row_ptr 0 t.cols in
  let n = Array.length t.values in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0. in
  (* Scanning rows in order makes each transposed row's columns (the
     original row indices) ascending — a valid CSR without re-sorting. *)
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      col_idx.(pos.(j)) <- i;
      values.(pos.(j)) <- t.values.(k);
      pos.(j) <- pos.(j) + 1
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

let mul_vec t x =
  if Array.length x <> t.cols then
    invalid_arg "Sparse.mul_vec: dimension mismatch";
  let dst = Array.make t.rows 0. in
  for i = 0 to t.rows - 1 do
    let acc = ref 0. in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    dst.(i) <- !acc
  done;
  dst

let vec_mul x t =
  if Array.length x <> t.rows then
    invalid_arg "Sparse.vec_mul: dimension mismatch";
  let out = Array.make t.cols 0. in
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        out.(t.col_idx.(k)) <- out.(t.col_idx.(k)) +. (xi *. t.values.(k))
      done
  done;
  out

(* ------------------------------------------------------------------ *)
(* Stationary solvers                                                  *)
(* ------------------------------------------------------------------ *)

let solver_span telemetry which =
  Option.map
    (fun r ->
      Registry.span r ~labels:[ ("solver", which) ] "markov_stationary_seconds")
    telemetry

let check_square name t =
  if t.rows <> t.cols then invalid_arg (name ^ ": matrix must be square");
  if t.rows = 0 then invalid_arg (name ^ ": empty matrix")

(* Working storage for the elimination: one growable (column, value)
   row per state, looked up by linear scan.  The fill budget keeps rows
   near the bandwidth, where scanning a short int array beats hashing on
   every probe — swapping Hashtbls for these arrays is worth ~3x on the
   banded ladders the solver exists for. *)
type grow_row = {
  mutable gk : int array;
  mutable gv : float array;
  mutable glen : int;
}

let grow_find r j =
  let rec go i =
    if i >= r.glen then -1 else if r.gk.(i) = j then i else go (i + 1)
  in
  go 0

let grow_push r j v =
  if r.glen = Array.length r.gk then begin
    let cap = max 8 (2 * r.glen) in
    let gk = Array.make cap 0 and gv = Array.make cap 0. in
    Array.blit r.gk 0 gk 0 r.glen;
    Array.blit r.gv 0 gv 0 r.glen;
    r.gk <- gk;
    r.gv <- gv
  end;
  r.gk.(r.glen) <- j;
  r.gv.(r.glen) <- v;
  r.glen <- r.glen + 1

let grow_remove r idx =
  let last = r.glen - 1 in
  r.gk.(idx) <- r.gk.(last);
  r.gv.(idx) <- r.gv.(last);
  r.glen <- last

(* In-place insertion sort of parallel (key, value) arrays — rows are a
   handful of entries, far below where an O(n log n) sort pays off. *)
let sort_pairs keys vals len =
  for i = 1 to len - 1 do
    let k = keys.(i) and v = vals.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    vals.(!j + 1) <- v
  done

type grow_ints = { mutable ik : int array; mutable ilen : int }

let ints_push r i =
  if r.ilen = Array.length r.ik then begin
    let cap = max 8 (2 * r.ilen) in
    let ik = Array.make cap 0 in
    Array.blit r.ik 0 ik 0 r.ilen;
    r.ik <- ik
  end;
  r.ik.(r.ilen) <- i;
  r.ilen <- r.ilen + 1

(* GTH state reduction.  Diagonal entries are never consulted — the
   censoring step conditions on leaving the eliminated state and the
   unfolding reads only strictly-lower column entries — so they are
   dropped at load time and never created by fill-in. *)
let stationary_censor ?fill_budget ?telemetry t =
  check_square "Sparse.stationary_censor" t;
  let n = t.rows in
  let fill_budget =
    match fill_budget with Some b -> b | None -> max 200_000 (64 * n)
  in
  let span = solver_span telemetry "censor" in
  let compute () =
    if n = 1 then Some [| 1. |]
    else begin
      let rowt = Array.init n (fun _ -> { gk = [||]; gv = [||]; glen = 0 }) in
      (* preds.(j) over-approximates { i | p_ij > 0 }: entries go stale
         when i is eliminated, and are filtered at extraction time. *)
      let preds = Array.init n (fun _ -> { ik = [||]; ilen = 0 }) in
      let live = ref 0 in
      for i = 0 to n - 1 do
        for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
          let j = t.col_idx.(k) in
          if i <> j && t.values.(k) > 0. then begin
            grow_push rowt.(i) j t.values.(k);
            ints_push preds.(j) i;
            incr live
          end
        done
      done;
      (* unfold.(k) holds the scaled column [(i, p_ik / S_k)], i < k —
         everything the forward pass needs. *)
      let unfold = Array.make n [] in
      let blown = ref (!live > fill_budget) in
      let k = ref (n - 1) in
      while (not !blown) && !k >= 1 do
        let kk = !k in
        let krow = rowt.(kk) in
        sort_pairs krow.gk krow.gv krow.glen;
        (* Columns >= kk were removed when those states were eliminated,
           and the diagonal is never stored, so the whole surviving row
           sums to S_k. *)
        let s = ref 0. in
        for x = 0 to krow.glen - 1 do
          s := !s +. krow.gv.(x)
        done;
        let s = !s in
        if not (s > 0.) then
          invalid_arg
            (Printf.sprintf
               "Sparse.stationary_censor: state %d has no flow to lower \
                states - the chain is reducible"
               kk);
        (* Predecessors i < kk, ascending; p_ik is guaranteed present in
           rowt.(i) because column kk is only ever removed right here. *)
        let pk = preds.(kk) in
        let pis = Array.make pk.ilen 0 and pvs = Array.make pk.ilen 0. in
        let m = ref 0 in
        for x = 0 to pk.ilen - 1 do
          let i = pk.ik.(x) in
          if i < kk then begin
            let idx = grow_find rowt.(i) kk in
            if idx >= 0 then begin
              pis.(!m) <- i;
              pvs.(!m) <- rowt.(i).gv.(idx);
              incr m
            end
          end
        done;
        let m = !m in
        sort_pairs pis pvs m;
        let scaled_col = ref [] in
        for x = m - 1 downto 0 do
          scaled_col := (pis.(x), pvs.(x) /. s) :: !scaled_col
        done;
        unfold.(kk) <- !scaled_col;
        for x = 0 to m - 1 do
          let i = pis.(x) in
          let scaled = pvs.(x) /. s in
          let ri = rowt.(i) in
          let idx = grow_find ri kk in
          if idx >= 0 then begin
            grow_remove ri idx;
            decr live
          end;
          for y = 0 to krow.glen - 1 do
            let j = krow.gk.(y) in
            if i <> j then begin
              let add = scaled *. krow.gv.(y) in
              let jdx = grow_find ri j in
              if jdx >= 0 then ri.gv.(jdx) <- ri.gv.(jdx) +. add
              else begin
                grow_push ri j add;
                ints_push preds.(j) i;
                incr live;
                if !live > fill_budget then blown := true
              end
            end
          done
        done;
        decr k
      done;
      if !blown then None
      else begin
        let pi = Array.make n 0. in
        pi.(0) <- 1.;
        for kk = 1 to n - 1 do
          pi.(kk) <-
            List.fold_left
              (fun acc (i, w) -> acc +. (pi.(i) *. w))
              0. unfold.(kk)
        done;
        Some (Linalg.normalize_l1 pi)
      end
    end
  in
  match span with Some s -> Span.time s compute | None -> compute ()

let aitken_window = 16

let stationary_power ?(tol = 1e-14) ?(max_iter = 1_000_000) ?telemetry t =
  check_square "Sparse.stationary_power" t;
  let n = t.rows in
  let span = solver_span telemetry "power" in
  let counter =
    Option.map (fun r -> Registry.counter r "markov_spmv_states_total") telemetry
  in
  let compute () =
    if n = 1 then [| 1. |]
    else begin
      let pt = transpose t in
      let d = ref (Array.make n (1. /. float_of_int n)) in
      let steps = ref 0 in
      let converged = ref false in
      let last_r = ref infinity in
      let window_r = ref nan in
      let rho = ref nan in
      let projected = ref infinity in
      while (not !converged) && !steps < max_iter do
        let next = mul_vec pt !d in
        (match counter with Some c -> Counter.add c n | None -> ());
        let r = Linalg.l1_diff next !d in
        d := next;
        incr steps;
        last_r := r;
        if r <= tol then converged := true
        else if !steps mod aitken_window = 0 then begin
          (* Aitken-style projection: the windowed geometric decay ratio
             rho bounds the remaining distance by the geometric tail
             r * rho / (1 - rho), so a clean slow decay stops as soon as
             the projection clears tol rather than when r itself does. *)
          (if Float.is_finite !window_r && !window_r > 0. then begin
             let ratio = (r /. !window_r) ** (1. /. float_of_int aitken_window) in
             rho := ratio;
             if ratio < 1. then begin
               projected := r *. ratio /. (1. -. ratio);
               if !projected <= tol then converged := true
             end
           end);
          window_r := r
        end
      done;
      if not !converged then
        failwith
          (Printf.sprintf
             "Sparse.stationary_power: did not converge within %d iterations \
              (tol %.3g, last L1 residual %.3g, projected error %.3g, current \
              gap estimate %.3g)"
             max_iter tol !last_r !projected
             (1. -. !rho));
      Linalg.normalize_l1 !d
    end
  in
  match span with Some s -> Span.time s compute | None -> compute ()
