(* The sparse-substrate property tier: random banded ergodic chains
   through every stationary solver and CSR round-trips — the
   differential pattern of the executor oracle applied
   to lib/markov.

   Every generated chain carries restart mass theta >= 0.05 to state 0,
   so it is Doeblin-ergodic with TV contraction <= 1 - theta: the dense
   power iteration at tol 1e-14 lands within ~2e-13 of the true
   stationary distribution, which is what makes the 1e-12 three-way
   agreement bound meaningful rather than hopeful. *)

open Helpers
module Chain = Nakamoto_markov.Chain
module Sparse = Nakamoto_markov.Sparse
module Linalg = Nakamoto_numerics.Linalg

let max_size = 40
let max_band = 8
let noise_width = (2 * max_band) + 1

type banded_spec = {
  size : int;
  band : int;  (** clipped to [size - 1] at build time *)
  theta : float;  (** restart mass to state 0 *)
  noise : float array;  (** [max_size * noise_width] weights in [0.05, 1.05) *)
}

let spec_to_string s =
  Printf.sprintf "{size=%d; band=%d; theta=%.3f}" s.size s.band s.theta

(* Noise is generated at full capacity so shrinking size or band re-reads
   the same weights — the shrunk chain is a deterministic function of the
   shrunk spec, not of a fresh random stream. *)
let banded_arb =
  let gen rng =
    let size = Gen.int_range ~lo:1 ~hi:max_size rng in
    let band = Gen.int_range ~lo:1 ~hi:max_band rng in
    let theta = Gen.float_range ~lo:0.05 ~hi:0.3 rng in
    let noise =
      Gen.array
        ~len:(Gen.return (max_size * noise_width))
        (Gen.float_range ~lo:0.05 ~hi:1.05)
        rng
    in
    { size; band; theta; noise }
  in
  let shrink s =
    Seq.append
      (Seq.map (fun size -> { s with size }) (P.Shrink.int ~target:1 s.size))
      (Seq.map (fun band -> { s with band }) (P.Shrink.int ~target:1 s.band))
  in
  Arbitrary.make ~print:spec_to_string ~shrink gen

let chain_of_spec s =
  let band = min s.band (max 0 (s.size - 1)) in
  let rows =
    Array.init s.size (fun i ->
        let lo = max 0 (i - band) and hi = min (s.size - 1) (i + band) in
        let w j = s.noise.((i * noise_width) + (j - i + max_band)) in
        let total = ref 0. in
        for j = lo to hi do
          total := !total +. w j
        done;
        let scale = (1. -. s.theta) /. !total in
        let entries = ref [] in
        for j = hi downto lo do
          entries := (j, w j *. scale) :: !entries
        done;
        (* A duplicate column-0 entry whenever the band reaches state 0 —
           deliberate: the dense path sums duplicates and the CSR build
           must coalesce them to the same values. *)
        (0, s.theta) :: !entries)
  in
  Chain.create ~size:s.size ~rows ()

(* --- the differential property: sparse vs dense solvers to 1e-12 --- *)

let prop_sparse_matches_dense spec =
  let chain = chain_of_spec spec in
  let solved = Chain.stationary_linear_solve chain in
  let powered = Chain.stationary_power_iteration chain in
  let sparse = Chain.stationary_sparse chain in
  let err_solve = Linalg.max_abs_diff sparse solved in
  let err_power = Linalg.max_abs_diff sparse powered in
  if err_solve > 1e-12 || err_power > 1e-12 then
    failwith
      (Printf.sprintf
         "sparse stationary disagrees: |sparse - linear_solve| = %.3e, \
          |sparse - power_iteration| = %.3e (bound 1e-12)"
         err_solve err_power)

(* --- CSR round-trip: dense -> CSR -> dense is the identity --- *)

let dense_of_chain chain =
  let n = Chain.size chain in
  let m = Linalg.make ~rows:n ~cols:n 0. in
  for i = 0 to n - 1 do
    List.iter (fun (j, p) -> m.(i).(j) <- m.(i).(j) +. p) (Chain.row chain i)
  done;
  m

let prop_csr_roundtrip spec =
  let chain = chain_of_spec spec in
  let dense = dense_of_chain chain in
  let back = Sparse.to_dense (Chain.to_sparse chain) in
  let back2 = Sparse.to_dense (Sparse.of_dense dense) in
  for i = 0 to Chain.size chain - 1 do
    for j = 0 to Chain.size chain - 1 do
      if back.(i).(j) <> dense.(i).(j) then
        failwith
          (Printf.sprintf "chain->CSR->dense differs at (%d,%d): %.17g vs %.17g"
             i j back.(i).(j) dense.(i).(j));
      if back2.(i).(j) <> dense.(i).(j) then
        failwith
          (Printf.sprintf "dense->CSR->dense differs at (%d,%d): %.17g vs %.17g"
             i j back2.(i).(j) dense.(i).(j))
    done
  done

let suite =
  [
    prop
      "banded ergodic chains: sparse stationary matches linear solve and \
       power iteration to 1e-12"
      ~count:(sized ~fast:1000 ~soak:2000)
      banded_arb
      (holds prop_sparse_matches_dense);
    prop "CSR round-trip is the identity on banded chains" ~count:200
      banded_arb (holds prop_csr_roundtrip);
  ]
