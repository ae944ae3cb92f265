open Helpers
module Rng = Nakamoto_prob.Rng

let test_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.bits64 a = Rng.bits64 b)
  done;
  let c = Rng.create ~seed:8L in
  let diverged = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 c then diverged := true
  done;
  check_true "different seeds diverge" !diverged

let test_copy_independent () =
  let a = rng () in
  let b = Rng.copy a in
  check_true "copies agree" (Rng.bits64 a = Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not advance b *)
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  check_true "desynchronized" (xa <> xb)

let test_split_streams_differ () =
  let a = rng () in
  let b = Rng.split a in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr overlap
  done;
  check_int "no collisions in 64 draws" 0 !overlap

let test_float_range () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let x = Rng.float g in
    check_true "in [0,1)" (x >= 0. && x < 1.)
  done

let test_float_mean () =
  let g = rng () in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.float g
  done;
  let mean = !sum /. float_of_int n in
  check_true "mean near 1/2" (Float.abs (mean -. 0.5) < 0.01)

let test_int_uniformity () =
  let g = rng () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int g ~bound:10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      check_true
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        (abs (c - (n / 10)) < n / 50))
    counts;
  check_int "bound 1 always 0" 0 (Rng.int g ~bound:1);
  check_raises_invalid "bound 0" (fun () -> ignore (Rng.int g ~bound:0))

let test_bernoulli () =
  let g = rng () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli g ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_true "rate near 0.3" (Float.abs (rate -. 0.3) < 0.01);
  check_false "p = 0 never" (Rng.bernoulli g ~p:0.);
  check_true "p = 1 always" (Rng.bernoulli g ~p:1.);
  check_raises_invalid "bad p" (fun () -> ignore (Rng.bernoulli g ~p:1.5))

let test_splitmix_mixing () =
  (* Adjacent inputs map to wildly different outputs. *)
  let a = Rng.splitmix64 1L and b = Rng.splitmix64 2L in
  check_true "adjacent inputs differ" (a <> b);
  let bits_differing = Int64.logxor a b in
  let popcount x =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr c
    done;
    !c
  in
  check_true "avalanche: ~half the bits flip"
    (abs (popcount bits_differing - 32) < 20)

let test_shuffle () =
  let g = rng () in
  let a = Array.init 10 Fun.id in
  let orig = Array.copy a in
  Rng.shuffle g a;
  Array.sort compare a;
  check_true "permutation preserves multiset" (a = orig);
  (* With 52 elements two shuffles almost surely differ. *)
  let x = Array.init 52 Fun.id and y = Array.init 52 Fun.id in
  Rng.shuffle g x;
  Rng.shuffle g y;
  check_true "shuffles differ" (x <> y)

let test_of_path () =
  (* Identical paths give identical streams. *)
  let a = Rng.of_path ~seed:42L [ 3; 17 ] and b = Rng.of_path ~seed:42L [ 3; 17 ] in
  for _ = 1 to 64 do
    check_true "identical paths, identical stream" (Rng.bits64 a = Rng.bits64 b)
  done;
  (* Distinct paths give decorrelated streams: no collisions in 64 draws,
     and roughly half the bits differ on the first draw. *)
  let decorrelated p q =
    let a = Rng.of_path ~seed:42L p and b = Rng.of_path ~seed:42L q in
    let collisions = ref 0 in
    for _ = 1 to 64 do
      if Rng.bits64 a = Rng.bits64 b then incr collisions
    done;
    check_int "no collisions between distinct paths" 0 !collisions
  in
  decorrelated [ 3; 17 ] [ 3; 18 ];
  decorrelated [ 3; 17 ] [ 4; 17 ];
  decorrelated [ 3; 17 ] [ 17; 3 ];
  (* order matters *)
  decorrelated [ 3 ] [ 3; 0 ];
  (* prefixes differ from extensions *)
  decorrelated [] [ 0 ];
  (* Seed sensitivity at identical paths. *)
  check_true "seeds separate the same path"
    (Rng.seed_of_path ~seed:1L [ 5; 5 ] <> Rng.seed_of_path ~seed:2L [ 5; 5 ]);
  (* of_path is create over seed_of_path. *)
  let direct = Rng.create ~seed:(Rng.seed_of_path ~seed:9L [ 1; 2; 3 ]) in
  let pathed = Rng.of_path ~seed:9L [ 1; 2; 3 ] in
  check_true "of_path = create . seed_of_path"
    (Rng.bits64 direct = Rng.bits64 pathed);
  check_raises_invalid "negative index" (fun () ->
      ignore (Rng.seed_of_path ~seed:0L [ 1; -2 ]))

let test_of_path_statistical_independence () =
  (* Sibling trial streams must look jointly uniform: correlate the float
     outputs of adjacent paths. *)
  let n = 20_000 in
  let a = Rng.of_path ~seed:7L [ 0; 0 ] and b = Rng.of_path ~seed:7L [ 0; 1 ] in
  let sum_ab = ref 0. and sum_a = ref 0. and sum_b = ref 0. in
  for _ = 1 to n do
    let x = Rng.float a and y = Rng.float b in
    sum_ab := !sum_ab +. (x *. y);
    sum_a := !sum_a +. x;
    sum_b := !sum_b +. y
  done;
  let fn = float_of_int n in
  let cov = (!sum_ab /. fn) -. (!sum_a /. fn *. (!sum_b /. fn)) in
  (* Var of the sample covariance of independent U[0,1) is ~ (1/12)^2/n. *)
  check_true
    (Printf.sprintf "covariance near zero (%.2e)" cov)
    (Float.abs cov < 5. /. 12. /. sqrt fn)

(* A property failing inside this binary prints a replay line that
   reruns this binary, not the property tier's. *)
let test_property_replay_line () =
  match
    P.Property.check ~count:3 ~name:"fails on every input"
      (Arbitrary.int_range ~lo:0 ~hi:9 ())
      (fun _ -> failwith "always")
  with
  | () -> Alcotest.fail "expected the property to fail"
  | exception P.Property.Failed f ->
    let msg = P.Property.failure_message f in
    check_true
      (Printf.sprintf "replay line names test/test_main.exe:\n%s" msg)
      (contains_substring ~affix:"dune exec test/test_main.exe -- test" msg)

let suite =
  [
    case "determinism" test_determinism;
    case "path derivation" test_of_path;
    case "path stream independence" test_of_path_statistical_independence;
    case "copy independence" test_copy_independent;
    case "split streams differ" test_split_streams_differ;
    case "float range" test_float_range;
    case "float mean" test_float_mean;
    case "int uniformity and validation" test_int_uniformity;
    case "bernoulli" test_bernoulli;
    case "splitmix avalanche" test_splitmix_mixing;
    case "shuffle" test_shuffle;
    case "a failing property's replay line names this binary"
      test_property_replay_line;
  ]
