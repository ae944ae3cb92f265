open Helpers
module Linalg = Nakamoto_numerics.Linalg

let check_vec msg expected actual =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri (fun i x -> close (Printf.sprintf "%s[%d]" msg i) x actual.(i)) expected

let test_make_identity () =
  let m = Linalg.make ~rows:2 ~cols:3 0.5 in
  check_int "rows" 2 (Array.length m);
  close "fill" 0.5 m.(1).(2);
  let i3 = Linalg.identity 3 in
  close "diag" 1. i3.(1).(1);
  close "off-diag" 0. i3.(0).(2);
  check_raises_invalid "negative dims" (fun () ->
      ignore (Linalg.make ~rows:(-1) ~cols:2 0.))

let test_dims_ragged () =
  check_raises_invalid "ragged" (fun () ->
      ignore (Linalg.dims [| [| 1. |]; [| 1.; 2. |] |]))

let test_transpose () =
  let m = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Linalg.transpose m in
  check_int "rows" 3 (Array.length t);
  close "t[2][1]" 6. t.(2).(1);
  close "t[0][0]" 1. t.(0).(0)

let test_mat_vec () =
  let m = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_vec "mat_vec" [| 5.; 11. |] (Linalg.mat_vec m [| 1.; 2. |]);
  check_vec "vec_mat" [| 7.; 10. |] (Linalg.vec_mat [| 1.; 2. |] m);
  check_raises_invalid "mismatch" (fun () -> ignore (Linalg.mat_vec m [| 1. |]))

let test_mat_mul () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let c = Linalg.mat_mul a b in
  close "swap columns" 2. c.(0).(0);
  close "" 1. c.(0).(1);
  let i = Linalg.identity 2 in
  let ai = Linalg.mat_mul a i in
  close "identity right" a.(1).(0) ai.(1).(0)

let test_solve () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Linalg.solve a [| 5.; 10. |] in
  check_vec "solution" [| 1.; 3. |] x;
  (* Pivoting required: zero leading entry. *)
  let b = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_vec "pivot case" [| 2.; 1. |] (Linalg.solve b [| 1.; 2. |]);
  (match Linalg.solve [| [| 1.; 1. |]; [| 1.; 1. |] |] [| 1.; 1. |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "singular should fail");
  check_raises_invalid "non-square" (fun () ->
      ignore (Linalg.solve [| [| 1.; 2. |] |] [| 1. |]))

let test_norms_and_vec_ops () =
  close "norm_inf" 3. (Linalg.norm_inf [| 1.; -3.; 2. |]);
  close "norm_l1" 6. (Linalg.norm_l1 [| 1.; -3.; 2. |]);
  check_vec "vec_sub" [| -1.; 1. |] (Linalg.vec_sub [| 1.; 3. |] [| 2.; 2. |]);
  check_vec "vec_scale" [| 2.; -4. |] (Linalg.vec_scale 2. [| 1.; -2. |]);
  check_vec "normalize_l1" [| 0.25; 0.75 |] (Linalg.normalize_l1 [| 1.; 3. |]);
  check_raises_invalid "normalize zero" (fun () ->
      ignore (Linalg.normalize_l1 [| 0.; 0. |]))

let show_floats xs =
  "[" ^ String.concat "; " (List.map (Printf.sprintf "%.17g") xs) ^ "]"

let props =
  let gen_system =
    Arbitrary.make
      ~print:(fun (n, entries, rhs) ->
        Printf.sprintf "(%d, %s, %s)" n (show_floats entries) (show_floats rhs))
      Gen.(
        let* n = int_range ~lo:1 ~hi:8 in
        let* entries =
          list ~len:(return (n * n)) (float_range ~lo:(-5.) ~hi:5.)
        in
        let* rhs = list ~len:(return n) (float_range ~lo:(-5.) ~hi:5.) in
        return (n, entries, rhs))
  in
  [
    prop "solve then multiply returns rhs" gen_system (fun (n, entries, rhs) ->
        let m =
          Array.init n (fun i ->
              Array.init n (fun j ->
                  List.nth entries ((i * n) + j)
                  +. if i = j then 10. else 0. (* diagonally dominant *)))
        in
        let b = Array.of_list rhs in
        let x = Linalg.solve m b in
        let back = Linalg.mat_vec m x in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) back b);
    prop "transpose is an involution"
      (Arbitrary.make
         ~print:(fun (rows, cols, entries) ->
           Printf.sprintf "(%d, %d, %s)" rows cols (show_floats entries))
         Gen.(
           let* rows = int_range ~lo:1 ~hi:5 in
           let* cols = int_range ~lo:1 ~hi:5 in
           let* entries =
             list ~len:(return (rows * cols)) (float_range ~lo:(-1.) ~hi:1.)
           in
           return (rows, cols, entries)))
      (fun (rows, cols, entries) ->
        let m =
          Array.init rows (fun i ->
              Array.init cols (fun j -> List.nth entries ((i * cols) + j)))
        in
        Linalg.transpose (Linalg.transpose m) = m);
  ]

let suite =
  [
    case "make/identity" test_make_identity;
    case "dims rejects ragged" test_dims_ragged;
    case "transpose" test_transpose;
    case "mat_vec/vec_mat" test_mat_vec;
    case "mat_mul" test_mat_mul;
    case "solve (LU with pivoting)" test_solve;
    case "norms and vector ops" test_norms_and_vec_ops;
  ]
  @ props
