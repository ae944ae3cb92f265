(* CSR kernel unit tests: construction round-trips, mat-vec against the
   dense reference on edge shapes, and the stationary solvers on chains
   with known distributions. *)

open Helpers
module Chain = Nakamoto_markov.Chain
module Sparse = Nakamoto_markov.Sparse
module Linalg = Nakamoto_numerics.Linalg
module Suffix_chain = Nakamoto_core.Suffix_chain

let check_dense msg expected actual =
  let re, ce = Linalg.dims expected and ra, ca = Linalg.dims actual in
  check_int (msg ^ ": rows") re ra;
  check_int (msg ^ ": cols") ce ca;
  for i = 0 to re - 1 do
    for j = 0 to ce - 1 do
      if expected.(i).(j) <> actual.(i).(j) then
        Alcotest.failf "%s: entry (%d,%d) is %.17g, expected %.17g" msg i j
          actual.(i).(j) expected.(i).(j)
    done
  done

let check_vec msg expected actual =
  check_int (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i v ->
      if v <> expected.(i) then
        Alcotest.failf "%s: entry %d is %.17g, expected %.17g" msg i v
          expected.(i))
    actual

(* A rectangular matrix exercising every row shape at once: an empty
   row, a single-entry row, and a full row. *)
let awkward =
  [| [| 0.; 0.; 0. |]; [| 0.; 2.5; 0. |]; [| 1.; -3.; 0.5 |]; [| 0.; 0.; 4. |] |]

let test_roundtrip () =
  List.iter
    (fun (name, m) ->
      check_dense name m (Sparse.to_dense (Sparse.of_dense m)))
    [
      ("awkward", awkward);
      ("1x1", [| [| 7. |] |]);
      ("1x1 zero", [| [| 0. |] |]);
      ("all-zero 3x2", Linalg.make ~rows:3 ~cols:2 0.);
    ]

let test_create_coalesces () =
  (* Duplicate columns sum; explicit zeros disappear; columns sort. *)
  let sp =
    Sparse.create ~rows:2 ~cols:3
      ~entries:[| [ (2, 1.); (0, 0.5); (2, 2.) ]; [ (1, 0.) ] |]
  in
  check_int "nnz after coalescing" 2 (Sparse.nnz sp);
  check_true "row 0 sorted and summed"
    (Sparse.row sp 0 = [ (0, 0.5); (2, 3.) ]);
  check_true "row 1 dropped its zero" (Sparse.row sp 1 = [])

let test_create_validates () =
  check_raises_invalid "column out of range" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (2, 1.) ] |]);
  check_raises_invalid "negative column" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (-1, 1.) ] |]);
  check_raises_invalid "non-finite value" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (0, Float.nan) ] |]);
  check_raises_invalid "entries length mismatch" (fun () ->
      Sparse.create ~rows:2 ~cols:2 ~entries:[| [] |])

let test_mat_vec_edge_shapes () =
  let x3 = [| 2.; -1.; 0.5 |] in
  let sp = Sparse.of_dense awkward in
  check_vec "awkward A x" (Linalg.mat_vec awkward x3) (Sparse.mul_vec sp x3);
  let x4 = [| 1.; 2.; 3.; 4. |] in
  check_vec "awkward x A" (Linalg.vec_mat x4 awkward) (Sparse.vec_mul x4 sp);
  (* 1-state. *)
  let one = Sparse.of_dense [| [| 0.25 |] |] in
  check_vec "1-state" [| 0.5 |] (Sparse.mul_vec one [| 2. |]);
  (* Full bandwidth: a dense 5x5 has every CSR row full. *)
  let full =
    Array.init 5 (fun i ->
        Array.init 5 (fun j -> float_of_int (((i * 5) + j + 1) mod 7)))
  in
  let x5 = Array.init 5 (fun i -> float_of_int i -. 2.) in
  check_vec "full bandwidth"
    (Linalg.mat_vec full x5)
    (Sparse.mul_vec (Sparse.of_dense full) x5);
  check_raises_invalid "mul_vec dimension mismatch" (fun () ->
      ignore (Sparse.mul_vec sp x4));
  check_raises_invalid "vec_mul dimension mismatch" (fun () ->
      ignore (Sparse.vec_mul x3 sp))

let test_transpose () =
  let sp = Sparse.of_dense awkward in
  check_dense "transpose"
    (Linalg.transpose awkward)
    (Sparse.to_dense (Sparse.transpose sp));
  check_int "transpose nnz" (Sparse.nnz sp) (Sparse.nnz (Sparse.transpose sp))

let weather = [| [| 0.7; 0.3 |]; [| 0.5; 0.5 |] |]

let test_censor_weather () =
  (* pi = (b, a) / (a + b) for [[1-a, a], [b, 1-b]]: (0.625, 0.375). *)
  match Sparse.stationary_censor (Sparse.of_dense weather) with
  | None -> Alcotest.fail "2-state censoring cannot blow its fill budget"
  | Some pi ->
    close "pi(0)" 0.625 pi.(0);
    close "pi(1)" 0.375 pi.(1)

let test_censor_ladder_matches_closed_form () =
  let delta = 600 and alpha = 0.01 in
  let sp = Suffix_chain.build_sparse ~delta ~alpha in
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  match Sparse.stationary_censor sp with
  | None -> Alcotest.fail "ladder chain must stay within the fill budget"
  | Some pi ->
    check_true "censor vs Eq. 37 below 1e-13"
      (Linalg.max_abs_diff pi closed < 1e-13)

let test_censor_fill_budget () =
  (* The budget bounds the LIVE entry count, so a budget below the
     initial nnz must abort before any elimination happens. *)
  let n = 20 in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = 0 then 1. /. float_of_int n
            else if j = i - 1 then 1.
            else 0.))
  in
  match Sparse.stationary_censor ~fill_budget:5 (Sparse.of_dense m) with
  | None -> ()
  | Some _ -> Alcotest.fail "fill_budget:5 must abort the solve"

let test_censor_reducible_rejected () =
  (* State 1 has no flow to lower states. *)
  let sp = Sparse.create ~rows:2 ~cols:2 ~entries:[| [ (0, 1.) ]; [ (1, 1.) ] |] in
  check_raises_invalid "reducible chain rejected" (fun () ->
      ignore (Sparse.stationary_censor sp));
  check_raises_invalid "non-square rejected" (fun () ->
      ignore (Sparse.stationary_censor (Sparse.of_dense awkward)))

let test_power_weather () =
  let pi = Sparse.stationary_power (Sparse.of_dense weather) in
  close "pi(0)" 0.625 pi.(0);
  close "pi(1)" 0.375 pi.(1);
  let one = Sparse.stationary_power (Sparse.of_dense [| [| 1. |] |]) in
  close "singleton" 1. one.(0)

let test_power_nonconvergence_message () =
  (* An asymmetric sticky chain (contraction ~0.97 per step) cannot
     reach 1e-14 in 64 steps: the failure must carry the iteration
     budget, tol, residual and the gap estimate. *)
  let sticky = Sparse.of_dense [| [| 0.99; 0.01 |]; [| 0.02; 0.98 |] |] in
  match Sparse.stationary_power ~max_iter:64 sticky with
  | _ -> Alcotest.fail "expected non-convergence in 64 steps"
  | exception Failure msg ->
    List.iter
      (fun affix ->
        check_true
          (Printf.sprintf "message mentions %s" affix)
          (contains_substring ~affix msg))
      [ "64 iterations"; "tol 1e-14"; "last L1 residual"; "gap estimate" ]

let test_chain_stationary_sparse () =
  let chain =
    Chain.create ~size:2
      ~rows:[| [ (0, 0.7); (1, 0.3) ]; [ (0, 0.5); (1, 0.5) ] |]
      ()
  in
  let pi = Chain.stationary_sparse chain in
  close "pi(0)" 0.625 pi.(0);
  close "pi(1)" 0.375 pi.(1);
  (* Duplicate targets coalesce on the way into CSR. *)
  let dup =
    Chain.create ~size:2
      ~rows:[| [ (0, 0.35); (1, 0.3); (0, 0.35) ]; [ (0, 0.5); (1, 0.5) ] |]
      ()
  in
  check_int "duplicates coalesced" 4 (Sparse.nnz (Chain.to_sparse dup));
  let pi' = Chain.stationary_sparse dup in
  close "coalesced pi(0)" 0.625 pi'.(0)

let test_chain_stationary_sparse_power_fallback () =
  (* A dense irreducible 600-state chain: 360 000 nonzeros already exceed
     the censor's fill budget, so [stationary_sparse] must take its power
     fallback and still land on the LU answer. *)
  let n = 600 in
  let chain =
    Chain.create ~size:n
      ~rows:
        (Array.init n (fun i ->
             let w =
               Array.init n (fun j ->
                   float_of_int (1 + (((i * 31) + (j * 17)) mod 13)))
             in
             let total = Array.fold_left ( +. ) 0. w in
             List.init n (fun j -> (j, w.(j) /. total))))
      ()
  in
  check_true "censoring blows its fill budget"
    (Sparse.stationary_censor (Chain.to_sparse chain) = None);
  let lu = Chain.stationary_linear_solve chain in
  check_true "power fallback matches dense LU"
    (Linalg.max_abs_diff (Chain.stationary_sparse chain) lu < 1e-12)

let test_stationary_auto_crossover () =
  (* At or below the crossover, auto IS the dense LU result, bitwise. *)
  let below = Suffix_chain.build ~delta:255 ~alpha:0.2 in
  check_int "just below crossover" 511 (Chain.size below);
  let dense = Chain.stationary_linear_solve below in
  let auto = Chain.stationary_auto below in
  Array.iteri
    (fun i v ->
      if v <> dense.(i) then
        Alcotest.failf "auto differs from dense LU at state %d below crossover"
          i)
    auto;
  (* Above it, the sparse path takes over and must still match theory. *)
  let above = Suffix_chain.build ~delta:300 ~alpha:0.05 in
  check_true "above crossover" (Chain.size above > Chain.sparse_crossover);
  let closed = Suffix_chain.stationary_closed_form ~delta:300 ~alpha:0.05 in
  check_true "sparse path matches Eq. 37"
    (Linalg.max_abs_diff (Chain.stationary_auto above) closed < 1e-12)

let test_telemetry_instrumentation () =
  let registry = Nakamoto_telemetry.Registry.create ~clock:(fun () -> 0.) () in
  let sp = Suffix_chain.build_sparse ~delta:100 ~alpha:0.05 in
  (match Sparse.stationary_censor ~telemetry:registry sp with
  | Some _ -> ()
  | None -> Alcotest.fail "censor must solve the ladder");
  ignore (Sparse.stationary_power ~telemetry:registry sp);
  let snap = Nakamoto_telemetry.Registry.snapshot registry in
  let module S = Nakamoto_telemetry.Registry.Snapshot in
  (match
     S.find snap "markov_stationary_seconds"
       ~labels:[ ("solver", "censor") ]
   with
  | Some (S.Span _) -> ()
  | _ -> Alcotest.fail "censor span missing");
  (match
     S.find snap "markov_stationary_seconds" ~labels:[ ("solver", "power") ]
   with
  | Some (S.Span _) -> ()
  | _ -> Alcotest.fail "power span missing");
  match S.find snap "markov_spmv_states_total" with
  | Some (S.Counter states) ->
    check_true "spmv counter counts states" (states > 0)
  | _ -> Alcotest.fail "spmv counter missing"

let suite =
  [
    case "dense -> CSR -> dense round-trip" test_roundtrip;
    case "construction coalesces and sorts" test_create_coalesces;
    case "construction validates" test_create_validates;
    case "mat-vec matches dense on edge shapes" test_mat_vec_edge_shapes;
    case "transpose" test_transpose;
    case "censoring solves the weather chain" test_censor_weather;
    case "censoring matches Eq. 37 on the delta=600 ladder"
      test_censor_ladder_matches_closed_form;
    case "censoring respects its fill budget" test_censor_fill_budget;
    case "censoring rejects reducible and non-square input"
      test_censor_reducible_rejected;
    case "power iteration solves the weather chain" test_power_weather;
    case "power iteration failure message is actionable"
      test_power_nonconvergence_message;
    case "Chain.stationary_sparse and duplicate coalescing"
      test_chain_stationary_sparse;
    case "Chain.stationary_sparse falls back to power past the fill budget"
      test_chain_stationary_sparse_power_fallback;
    case "stationary_auto: dense below the crossover, sparse above"
      test_stationary_auto_crossover;
    case "telemetry spans and the spmv counter" test_telemetry_instrumentation;
  ]
