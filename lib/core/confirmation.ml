module Chain = Nakamoto_markov.Chain
module Absorbing = Nakamoto_markov.Absorbing
module Table = Nakamoto_numerics.Table

let check_rates ~honest_rate ~adversary_rate =
  if not (honest_rate > 0. && adversary_rate > 0.) then
    invalid_arg "Confirmation: rates must be positive"

let overtake_probability ~honest_rate ~adversary_rate ~deficit =
  check_rates ~honest_rate ~adversary_rate;
  if deficit < 0 then invalid_arg "Confirmation: deficit must be nonnegative";
  let ratio = adversary_rate /. honest_rate in
  if ratio >= 1. then 1.
  else ratio ** float_of_int (deficit + 1)

let overtake_probability_bounded ~honest_rate ~adversary_rate ~deficit
    ~give_up_behind =
  check_rates ~honest_rate ~adversary_rate;
  if deficit < 0 then invalid_arg "Confirmation: deficit must be nonnegative";
  if give_up_behind <= deficit then
    invalid_arg "Confirmation: give_up_behind must exceed deficit";
  (* Embedded jump chain of the race: ignore rounds where neither side
     produces (their probability mass only rescales time).  The lead walk
     moves +1 with probability q and -1 with probability 1-q where
     q = adversary_rate / (adversary_rate + honest_rate).  States encode
     lead = -give_up_behind .. +1; both ends absorb. *)
  let q = adversary_rate /. (adversary_rate +. honest_rate) in
  let lo = -give_up_behind and hi = 1 in
  let size = hi - lo + 1 in
  let index lead = lead - lo in
  let rows =
    Array.init size (fun i ->
        let lead = i + lo in
        if lead = lo || lead = hi then [ (i, 1.) ]
        else [ (index (lead + 1), q); (index (lead - 1), 1. -. q) ])
  in
  let chain = Chain.create ~size ~rows () in
  let absorbing = Absorbing.create ~chain ~absorbing:[ index lo; index hi ] in
  Absorbing.absorption_probability absorbing ~from:(index (-deficit))
    ~into:(index hi)

let nakamoto_double_spend ~ratio ~confirmations =
  if not (ratio > 0.) then invalid_arg "Confirmation: ratio must be positive";
  if confirmations < 1 then
    invalid_arg "Confirmation: confirmations must be >= 1";
  if ratio >= 1. then 1.
  else begin
    let z = confirmations in
    let lambda = float_of_int z *. ratio in
    let log_lambda = log lambda in
    (* sum_{k=0}^{z} poisson(k; lambda) * (1 - ratio^(z-k)), accumulated
       in linear domain (z is small; lambda <= z). *)
    let acc = ref 0. in
    let log_fact = ref 0. in
    for k = 0 to z do
      if k > 0 then log_fact := !log_fact +. log (float_of_int k);
      let log_pois = (float_of_int k *. log_lambda) -. lambda -. !log_fact in
      let caught = ratio ** float_of_int (z - k) in
      acc := !acc +. (exp log_pois *. (1. -. caught))
    done;
    Nakamoto_numerics.Special.clamp ~lo:0. ~hi:1. (1. -. !acc)
  end

let default_depth_limit = 10_000
let min_epsilon = 1e-9

(* Galloping search for the first depth [test] accepts: probe 1, 2, 4,
   ... (the last probe capped at [limit]) until one passes, then bisect
   between the last failing probe [lo] and the passing one.  [test]
   returns the passing probe's witness, so the caller gets the value at
   the answer without evaluating it again. *)
let gallop ~limit test =
  let rec bisect lo ((hi, _) as best) =
    if hi - lo <= 1 then Some best
    else begin
      let mid = lo + ((hi - lo) / 2) in
      match test mid with
      | Some w -> bisect lo (mid, w)
      | None -> bisect mid best
    end
  in
  let rec probe lo z =
    match test z with
    | Some w -> bisect lo (z, w)
    | None -> if z >= limit then None else probe z (min limit (2 * z))
  in
  probe 0 1

let search_probes depth =
  if depth < 1 || depth > default_depth_limit then
    invalid_arg
      "Confirmation.search_probes: depth must lie in [1, default_depth_limit]";
  let seen = ref [] in
  ignore
    (gallop ~limit:default_depth_limit (fun z ->
         seen := z :: !seen;
         if z >= depth then Some () else None));
  List.rev !seen

let depth_search ~limit ~ratio ~epsilon =
  if not (ratio > 0. && ratio < 1.) then
    invalid_arg "Confirmation.confirmations_for: ratio must lie in (0, 1)";
  if not (epsilon >= min_epsilon && epsilon < 1.) then
    invalid_arg "Confirmation.confirmations_for: epsilon must lie in [1e-9, 1)";
  if limit < 1 then
    invalid_arg "Confirmation.confirmations_for: limit must be >= 1";
  gallop ~limit (fun z ->
      let risk = nakamoto_double_spend ~ratio ~confirmations:z in
      if risk <= epsilon then Some risk else None)

let confirmations_for ?(limit = default_depth_limit) ~ratio ~epsilon () =
  Option.map fst (depth_search ~limit ~ratio ~epsilon)

type assessment = {
  params : Params.t;
  honest_rate : float;
  adversary_rate : float;
  rate_ratio : float;
  confirmations : int;
  residual_risk : float;
}

type unavailable =
  | No_adversary
  | Outside_consistency of { rate_ratio : float }
  | Depth_limited of { rate_ratio : float; limit : int }

let unavailable_label = function
  | No_adversary -> "no_adversary"
  | Outside_consistency _ -> "outside_consistency"
  | Depth_limited _ -> "depth_limited"

let assess_checked ?(epsilon = 1e-3) (params : Params.t) =
  if params.nu = 0. then Error No_adversary
  else begin
    let honest_rate = Conv_chain.convergence_rate params in
    let adversary_rate = Params.adversary_rate params in
    let rate_ratio = adversary_rate /. honest_rate in
    if not (rate_ratio < 1.) then Error (Outside_consistency { rate_ratio })
    else
      match
        depth_search ~limit:default_depth_limit ~ratio:rate_ratio ~epsilon
      with
      | None ->
        (* A ratio this close to 1 would want more confirmations than the
           search limit: for any practical purpose the parameters are not
           settleable. *)
        Error (Depth_limited { rate_ratio; limit = default_depth_limit })
      | Some (confirmations, residual_risk) ->
        Ok
          {
            params;
            honest_rate;
            adversary_rate;
            rate_ratio;
            confirmations;
            residual_risk;
          }
  end

let assess ?epsilon (params : Params.t) =
  match assess_checked ?epsilon params with
  | Ok a -> a
  | Error No_adversary ->
    invalid_arg "Confirmation.assess: nu = 0 has nothing to defend against"
  | Error (Outside_consistency _) ->
    invalid_arg
      "Confirmation.assess: parameters outside the consistency region (ratio >= 1)"
  | Error (Depth_limited { rate_ratio; _ }) ->
    invalid_arg
      (Printf.sprintf
         "Confirmation.assess: no depth within the search limit reaches \
          epsilon = %g at rate ratio %.6f (settlement impractical this \
          close to the consistency boundary)"
         (Option.value epsilon ~default:1e-3) rate_ratio)

let to_table assessments =
  let t =
    Table.create
      ~title:"Confirmation depths (conservative Delta-delay accounting)"
      ~columns:
        [ "nu"; "c"; "honest rate (Eq.44)"; "adv rate (Eq.27)"; "ratio";
          "confirmations"; "residual risk" ]
  in
  List.iter
    (fun a ->
      Table.add_row t
        [
          Table.Float a.params.Params.nu;
          Table.Float (Params.c a.params);
          Table.Sci a.honest_rate;
          Table.Sci a.adversary_rate;
          Table.Float a.rate_ratio;
          Table.Int a.confirmations;
          Table.Sci a.residual_risk;
        ])
    assessments;
  t
