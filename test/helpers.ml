(* Shared test utilities: float comparison, Alcotest adapters and the
   adapter onto the in-repo property runner.  Both test binaries use this
   one file; test/prop/dune copies it into the property tier. *)

module P = Nakamoto_proptest
module Gen = P.Gen
module Arbitrary = P.Arbitrary

let close ?(rtol = 1e-9) ?(atol = 1e-12) msg expected actual =
  if not (Nakamoto_numerics.Special.approx_equal ~rtol ~atol expected actual)
  then
    Alcotest.failf "%s: expected %.17g, got %.17g (diff %.3e)" msg expected
      actual
      (Float.abs (expected -. actual))

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Invalid_argument, got %s" msg
      (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" msg

let case name f = Alcotest.test_case name `Quick f

(* A property as an alcotest case.  The law fails by returning false or by
   raising; the engine's failure report (input rendered before and after
   shrinking, and the (seed, path) replay line) is the assertion
   message. *)
let prop ?(count = 200) name arb law =
  case name (fun () ->
      try
        P.Property.check ~count ~name arb (fun x ->
            if not (law x) then failwith "the law returned false")
      with P.Property.Failed f -> Alcotest.fail (P.Property.failure_message f))

(* The law of a property body that fails only by raising. *)
let holds body x =
  body x;
  true

(* Soak scaling: a size that grows when PROPTEST_TRIALS is set. *)
let sized ~fast ~soak = if P.Property.soak_active () then soak else fast

(* A deterministic rng for tests that need one. *)
let rng ?(seed = 12345L) () = Nakamoto_prob.Rng.create ~seed

let contains_substring ~affix s =
  let n = String.length affix and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0
