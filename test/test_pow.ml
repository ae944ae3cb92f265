open Helpers
module Pow = Nakamoto_chain.Pow
module Hash = Nakamoto_chain.Hash

let oracle ?(p = 0.05) ?(seed = 11L) () = Pow.create ~seed ~p

let test_create_validation () =
  check_raises_invalid "p = 0" (fun () -> ignore (Pow.create ~seed:1L ~p:0.));
  check_raises_invalid "p = 1" (fun () -> ignore (Pow.create ~seed:1L ~p:1.));
  close "hardness stored" 0.05 (Pow.hardness (oracle ()))

let test_threshold_matches_p () =
  (* threshold / 2^64 must equal p to float precision, including p > 1/2
     where the bit pattern wraps negative. *)
  List.iter
    (fun p ->
      let t = Pow.threshold (Pow.create ~seed:1L ~p) in
      (* Unsigned value of the int64 as float. *)
      let unsigned =
        if Int64.compare t 0L >= 0 then Int64.to_float t
        else Int64.to_float t +. 18446744073709551616.
      in
      close ~rtol:1e-9
        (Printf.sprintf "threshold at p=%g" p)
        p
        (unsigned /. 18446744073709551616.))
    [ 1e-6; 0.01; 0.3; 0.5; 0.9; 0.999 ]

let test_query_deterministic () =
  let o = oracle () in
  let q () =
    Pow.query o ~parent:Hash.zero ~miner:3 ~round:7 ~query_index:0
  in
  check_true "same query, same answer" (q () = q ());
  check_raises_invalid "negative round" (fun () ->
      ignore (Pow.query o ~parent:Hash.zero ~miner:0 ~round:(-1) ~query_index:0));
  check_raises_invalid "bad miner" (fun () ->
      ignore (Pow.query o ~parent:Hash.zero ~miner:(-2) ~round:1 ~query_index:0))

let test_success_rate () =
  let o = oracle ~p:0.05 () in
  let hits = ref 0 in
  let n = 100_000 in
  for i = 0 to n - 1 do
    match
      Pow.query o ~parent:Hash.zero ~miner:(i mod 97) ~round:(i / 97)
        ~query_index:0
    with
    | Some _ -> incr hits
    | None -> ()
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_true
    (Printf.sprintf "rate %.4f near 0.05" rate)
    (Float.abs (rate -. 0.05) < 0.005)

let test_verify () =
  let o = oracle ~p:0.2 () in
  (* Find a winning proof. *)
  let rec find round =
    match Pow.query o ~parent:Hash.zero ~miner:1 ~round ~query_index:0 with
    | Some proof -> proof
    | None -> find (round + 1)
  in
  let proof = find 0 in
  check_true "honest proof verifies" (Pow.verify o proof);
  (* A different oracle (other seed or hardness) rejects it. *)
  check_false "wrong seed rejects" (Pow.verify (Pow.create ~seed:99L ~p:0.2) proof);
  check_false "harder target rejects"
    (Pow.verify (Pow.create ~seed:11L ~p:1e-9) proof)

let test_independence_across_fields () =
  (* Changing any field of the query changes the digest (and thus
     decorrelates success). *)
  let o = oracle ~p:0.5 () in
  let outcome ~parent ~miner ~round ~query_index =
    Pow.query o ~parent ~miner ~round ~query_index <> None
  in
  let base = List.init 64 (fun i -> outcome ~parent:Hash.zero ~miner:0 ~round:i ~query_index:0) in
  let other_miner = List.init 64 (fun i -> outcome ~parent:Hash.zero ~miner:1 ~round:i ~query_index:0) in
  check_false "different miners see different coins" (base = other_miner);
  let idx1 = List.init 64 (fun i -> outcome ~parent:Hash.zero ~miner:0 ~round:i ~query_index:1) in
  check_false "query index matters" (base = idx1)

let test_success_count_binomial_law () =
  let o = oracle ~p:0.1 () in
  let total = ref 0 in
  let rounds = 5_000 and queries = 10 in
  for round = 0 to rounds - 1 do
    let wins = Pow.success_count o ~parent:Hash.zero ~miner:(-1) ~round ~queries in
    List.iter (fun proof -> check_true "each win verifies" (Pow.verify o proof)) wins;
    total := !total + List.length wins
  done;
  let mean = float_of_int !total /. float_of_int rounds in
  check_true
    (Printf.sprintf "mean successes %.3f near 1.0" mean)
    (Float.abs (mean -. 1.0) < 0.05)

let test_successes_matches_success_count () =
  (* The allocation-free counter must agree with the proof-collecting
     variant query for query, across rounds and query batch sizes. *)
  let o = oracle ~p:0.1 () in
  for round = 0 to 200 do
    let queries = 1 + (round mod 17) in
    check_int
      (Printf.sprintf "round %d" round)
      (List.length
         (Pow.success_count o ~parent:Hash.zero ~miner:(-1) ~round ~queries))
      (Pow.successes o ~parent:Hash.zero ~miner:(-1) ~round ~queries)
  done;
  check_int "zero queries" 0
    (Pow.successes o ~parent:Hash.zero ~miner:(-1) ~round:0 ~queries:0);
  check_raises_invalid "negative round" (fun () ->
      ignore (Pow.successes o ~parent:Hash.zero ~miner:0 ~round:(-1) ~queries:1))

let test_execution_uses_oracle_rates () =
  (* End-to-end: with the oracle wired in, execution block rates still
     follow the analytic law. *)
  let cfg =
    Nakamoto_sim.Config.with_c
      { Nakamoto_sim.Config.default with rounds = 20_000; seed = 5L }
      ~c:2.
  in
  let r = Nakamoto_sim.Execution.run cfg in
  let p = Nakamoto_core.Params.of_sim_config cfg in
  let t = 20_000. in
  let h_rate = float_of_int r.h_rounds /. t in
  check_true
    (Printf.sprintf "H-round rate %.4f near alpha %.4f" h_rate
       (Nakamoto_core.Params.alpha p))
    (Float.abs (h_rate -. Nakamoto_core.Params.alpha p) < 0.01);
  let a_rate = float_of_int r.adversary_blocks /. t in
  check_true
    (Printf.sprintf "adversary rate %.4f near p nu n %.4f" a_rate
       (Nakamoto_core.Params.adversary_rate p))
    (Float.abs (a_rate -. Nakamoto_core.Params.adversary_rate p) < 0.01)

(* Known-answer pins on the oracle's digest bits.  A fixed grid of
   (seed, parent, miner, round, query index) is queried in order; every
   hit must verify and carry its query's fields, and the hits' grid
   indices and digests are folded into one value.  Any change to the
   mixing, the field order or the threshold test moves the fold. *)
let fold acc x = Nakamoto_prob.Rng.splitmix64 (Int64.logxor acc x)

let test_query_known_answers () =
  let parents =
    [
      Hash.zero;
      Nakamoto_chain.Block.genesis.hash;
      Hash.of_int64 0x0123_4567_89AB_CDEFL;
      Hash.of_int64 (-1L);
    ]
  in
  let miners = [ -1; 0; 1; 7 ] and rounds = [ 0; 1; 2; 1_000 ] in
  List.iter
    (fun (seed, p, expected_hits, expected_fold) ->
      let o = Pow.create ~seed ~p in
      let acc = ref 0L and hits = ref [] and index = ref 0 in
      List.iter
        (fun parent ->
          List.iter
            (fun miner ->
              List.iter
                (fun round ->
                  for query_index = 0 to 3 do
                    (match Pow.query o ~parent ~miner ~round ~query_index with
                    | None -> ()
                    | Some proof ->
                      check_true "hit verifies" (Pow.verify o proof);
                      check_true "hit carries its query"
                        (Hash.equal proof.parent parent
                        && proof.miner = miner && proof.round = round
                        && proof.query_index = query_index);
                      hits := !index :: !hits;
                      acc :=
                        fold
                          (fold !acc (Int64.of_int !index))
                          (Hash.to_int64 proof.digest));
                    incr index
                  done)
                rounds)
            miners)
        parents;
      let label = Printf.sprintf "seed %Ld, p = %g" seed p in
      (match expected_hits with
      | `Indices l ->
        Alcotest.(check (list int)) (label ^ ": hit indices") l (List.rev !hits)
      | `Count c -> check_int (label ^ ": hit count") c (List.length !hits));
      Alcotest.(check string)
        (label ^ ": folded digest") expected_fold
        (Printf.sprintf "%016Lx" !acc))
    [
      ( 11L,
        0.05,
        `Indices
          [ 4; 7; 18; 46; 55; 81; 89; 102; 117; 119; 129; 155; 175; 190; 211;
            232; 238 ],
        "b941a901642799b9" );
      (0x5EEDL, 0.5, `Count 119, "fe91bce2589ccb30");
    ]

(* The counting loop reads the same bits: its per-round counts over the
   same kind of grid, folded. *)
let test_successes_known_answers () =
  let o = Pow.create ~seed:0x5EEDL ~p:0.1 in
  let acc = ref 0L and total = ref 0 in
  List.iter
    (fun parent ->
      for round = 0 to 63 do
        let wins = Pow.successes o ~parent ~miner:(-1) ~round ~queries:12 in
        total := !total + wins;
        acc := fold !acc (Int64.of_int wins)
      done)
    [ Hash.zero; Nakamoto_chain.Block.genesis.hash; Hash.of_int64 (-1L) ];
  check_int "total successes" 230 !total;
  Alcotest.(check string)
    "folded counts" "51d241139f70aca3"
    (Printf.sprintf "%016Lx" !acc)

let suite =
  [
    case "create validation" test_create_validation;
    case "threshold encodes p" test_threshold_matches_p;
    case "query deterministic" test_query_deterministic;
    case "success rate = p" test_success_rate;
    case "verify (H.ver)" test_verify;
    case "field independence" test_independence_across_fields;
    case "sequential queries follow binomial law" test_success_count_binomial_law;
    case "successes matches success_count" test_successes_matches_success_count;
    case "execution rates with the oracle" test_execution_uses_oracle_rates;
    case "query known answers" test_query_known_answers;
    case "successes known answers" test_successes_known_answers;
  ]
