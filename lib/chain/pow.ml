type t = { seed : int64; p : float; threshold : int64 }

type proof = {
  parent : Hash.t;
  miner : int;
  round : int;
  query_index : int;
  digest : Hash.t;
}

let create ~seed ~p =
  if not (p > 0. && p < 1.) then invalid_arg "Pow.create: p must lie in (0, 1)";
  (* Unsigned threshold floor (p * 2^64), stored as the signed bit
     pattern: for p >= 1/2 the unsigned value exceeds Int64.max, so it is
     materialized as (p - 1) * 2^64, the same bits read signed.
     (Int64.of_float saturates rather than wraps, so the shift must happen
     in float space.) *)
  let two64 = 18446744073709551616. in
  let threshold =
    if p < 0.5 then Int64.of_float (p *. two64)
    else Int64.of_float ((p -. 1.) *. two64)
  in
  { seed; p; threshold }

let hardness t = t.p
let threshold t = t.threshold

(* The digest when it beats the target: [H(seed, parent, miner, round,
   query_index) < D_p], computed by [Hash] in one unboxed body, so a miss
   allocates nothing. *)
let winning_digest t ~parent ~miner ~round ~query_index =
  Hash.keyed_below ~key:t.seed ~target:t.threshold ~parent ~miner ~round
    ~nonce:query_index

let query t ~parent ~miner ~round ~query_index =
  if round < 0 then invalid_arg "Pow.query: negative round";
  if query_index < 0 then invalid_arg "Pow.query: negative query index";
  if miner < -1 then invalid_arg "Pow.query: bad miner id";
  match winning_digest t ~parent ~miner ~round ~query_index with
  | None -> None
  | Some digest -> Some { parent; miner; round; query_index; digest }

let verify t proof =
  match
    winning_digest t ~parent:proof.parent ~miner:proof.miner
      ~round:proof.round ~query_index:proof.query_index
  with
  | Some recomputed -> Hash.equal recomputed proof.digest
  | None -> false

let successes t ~parent ~miner ~round ~queries =
  if round < 0 then invalid_arg "Pow.successes: negative round";
  if miner < -1 then invalid_arg "Pow.successes: bad miner id";
  let count = ref 0 in
  for query_index = 0 to queries - 1 do
    match winning_digest t ~parent ~miner ~round ~query_index with
    | Some _ -> incr count
    | None -> ()
  done;
  !count

let success_count t ~parent ~miner ~round ~queries =
  let rec go i acc =
    if i >= queries then List.rev acc
    else
      match query t ~parent ~miner ~round ~query_index:i with
      | Some proof -> go (i + 1) (proof :: acc)
      | None -> go (i + 1) acc
  in
  go 0 []
