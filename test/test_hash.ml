open Helpers
module Hash = Nakamoto_chain.Hash

let test_roundtrip () =
  let h = Hash.of_int64 0x1234_5678_9ABC_DEF0L in
  check_true "int64 roundtrip" (Hash.to_int64 h = 0x1234_5678_9ABC_DEF0L);
  check_true "equal reflexive" (Hash.equal h h);
  check_int "compare self" 0 (Hash.compare h h)

let test_hex () =
  Alcotest.(check string) "hex" "00000000000000ff" (Hash.to_hex (Hash.of_int64 255L));
  Alcotest.(check string) "zero" "0000000000000000" (Hash.to_hex Hash.zero);
  check_int "hex length" 16 (String.length (Hash.to_hex (Hash.of_int64 (-1L))))

let test_combine_sensitivity () =
  let base = Hash.of_int64 17L in
  check_true "combine changes value" (not (Hash.equal (Hash.combine base 1L) base));
  check_true "different absorbed values differ"
    (not (Hash.equal (Hash.combine base 1L) (Hash.combine base 2L)));
  check_true "order sensitive"
    (not
       (Hash.equal
          (Hash.combine (Hash.combine base 1L) 2L)
          (Hash.combine (Hash.combine base 2L) 1L)))

let test_of_fields_distinct () =
  let mk ~miner ~round ~nonce =
    Hash.of_fields ~parent:Hash.zero ~miner ~round ~nonce
  in
  let a = mk ~miner:1 ~round:1 ~nonce:0 in
  check_true "miner matters" (not (Hash.equal a (mk ~miner:2 ~round:1 ~nonce:0)));
  check_true "round matters" (not (Hash.equal a (mk ~miner:1 ~round:2 ~nonce:0)));
  check_true "nonce matters" (not (Hash.equal a (mk ~miner:1 ~round:1 ~nonce:1)));
  check_true "deterministic" (Hash.equal a (mk ~miner:1 ~round:1 ~nonce:0))

let test_no_collisions_small_space () =
  (* A birthday test over 10^5 headers: any collision would indicate a
     broken mixer, not bad luck (probability < 3e-10). *)
  let seen = Hashtbl.create 200_000 in
  let collisions = ref 0 in
  for miner = 0 to 99 do
    for round = 1 to 100 do
      for nonce = 0 to 9 do
        let h =
          Hash.to_int64 (Hash.of_fields ~parent:Hash.zero ~miner ~round ~nonce)
        in
        if Hashtbl.mem seen h then incr collisions else Hashtbl.add seen h ()
      done
    done
  done;
  check_int "no collisions" 0 !collisions

(* Known-answer pins on the header digest: the genesis hash, and every
   digest of a fixed grid of (parent, miner, round, nonce) folded into
   one value. *)
let test_of_fields_known_answers () =
  Alcotest.(check string)
    "genesis" "d6f45b413949bf61"
    (Hash.to_hex Nakamoto_chain.Block.genesis.hash);
  let acc = ref 0L in
  List.iter
    (fun parent ->
      List.iter
        (fun miner ->
          for round = 0 to 9 do
            for nonce = 0 to 2 do
              let h = Hash.of_fields ~parent ~miner ~round ~nonce in
              acc :=
                Nakamoto_prob.Rng.splitmix64
                  (Int64.logxor !acc (Hash.to_int64 h))
            done
          done)
        [ -1; 0; 3; 4_095; max_int ])
    [ Hash.zero; Hash.of_int64 0x0123_4567_89AB_CDEFL; Hash.of_int64 (-1L) ];
  Alcotest.(check string)
    "folded digests" "ed63ae715929277c"
    (Printf.sprintf "%016Lx" !acc)

(* [combine] is the SplitMix64 finalizer of h * 0x100000001B3 + x, the
   same mix as the rng's seeding step. *)
let test_combine_is_splitmix () =
  let r = Nakamoto_prob.Rng.create ~seed:0xC0FFEEL in
  for i = 1 to 10_000 do
    let h = Nakamoto_prob.Rng.bits64 r and x = Nakamoto_prob.Rng.bits64 r in
    let expected =
      Nakamoto_prob.Rng.splitmix64 (Int64.add (Int64.mul h 0x100000001B3L) x)
    in
    let got = Hash.to_int64 (Hash.combine (Hash.of_int64 h) x) in
    if not (Int64.equal got expected) then
      Alcotest.failf "input %d: combine %Lx %Lx differs from splitmix64" i h x
  done

let suite =
  [
    case "int64 roundtrip" test_roundtrip;
    case "hex rendering" test_hex;
    case "combine sensitivity" test_combine_sensitivity;
    case "of_fields distinguishes fields" test_of_fields_distinct;
    case "birthday test" test_no_collisions_small_space;
    case "of_fields known answers" test_of_fields_known_answers;
    case "combine is splitmix64" test_combine_is_splitmix;
  ]
