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

let default_depth_limit = 10_000
let min_epsilon = 1e-9

(* Nakamoto's [1 - sum] is, after expanding [1 - ratio^(z-k)] and using
   r^z e^-z z^k = e^-lambda lambda^k ratio^(z-k), the positive two-term
   form P(Pois(lambda) > z) + r^z P(Pois(z) <= z) with lambda = z ratio
   and r = ratio e^(1 - ratio).  Both terms are multiples of the Poisson
   mass a = e^-lambda lambda^z / z!: the tail is a times a sum over
   k > z of terms falling by lambda / k < ratio, the head a times a sum
   over k <= z, from 1 at k = z down, of terms falling by k / z.  Each
   sum starts at its largest term and stops once a term no longer
   changes it: about 37 / (1 - ratio) tail terms, and 9 sqrt z head
   terms but never more than z + 1.  Nothing cancels, and a read costs
   one log k!, one log and one exp besides the multiply-divides. *)
let nakamoto_double_spend ~ratio ~confirmations =
  if not (ratio > 0.) then invalid_arg "Confirmation: ratio must be positive";
  if confirmations < 1 then
    invalid_arg "Confirmation: confirmations must be >= 1";
  if ratio >= 1. then 1.
  else begin
    let z = float_of_int confirmations in
    let lambda = z *. ratio in
    let rec head k term sum =
      if k = 0 then sum
      else begin
        let term = term *. (float_of_int k /. z) in
        let next = sum +. term in
        if next = sum then sum else head (k - 1) term next
      end
    in
    let rec tail k term sum =
      let term = term *. (lambda /. float_of_int k) in
      let next = sum +. term in
      if next = sum then sum else tail (k + 1) term next
    in
    let mass =
      exp
        ((z *. log lambda) -. lambda
        -. Nakamoto_numerics.Special.log_factorial confirmations)
    in
    Float.min 1.
      (mass *. (head confirmations 1. 1. +. tail (confirmations + 1) 1. 0.))
  end

(* [ceil x] restricted to [[lo, hi]]; a NaN [x] gives [lo]. *)
let depth_in ~lo ~hi x =
  if x >= float_of_int hi then hi
  else if x > float_of_int lo then int_of_float (Float.ceil x)
  else lo

(* The risk at depth z is r^z P(Pois(z) <= z) + P(Pois(z ratio) > z)
   with r = ratio e^(1 - ratio), about
   r^z (1/2 + ratio / ((1 - ratio) sqrt (2 pi z))).  Four fixed-point
   steps of z = ln (epsilon / that factor) / ln r, from z = 1 and kept
   at least 1, solve it for epsilon.  Nakamoto_surface.Cert mirrors this
   expression over intervals. *)
let first_read ?(limit = default_depth_limit) ~ratio ~epsilon () =
  let log_r = log ratio +. (1. -. ratio) in
  let excess = ratio /. (1. -. ratio) in
  let log_epsilon = log epsilon in
  let step z =
    let factor = 0.5 +. (excess /. ((2. *. Float.pi *. z) ** 0.5)) in
    Float.max 1. ((log_epsilon -. log factor) /. log_r)
  in
  depth_in ~lo:1 ~hi:limit (step (step (step (step 1.))))

(* The search keeps a bracket: [lo] is the deepest depth read that fails
   epsilon (0 before one does) and [hi] the shallowest read that meets
   it (limit + 1 before one does), with its risk [w].  Every read after
   the first lies strictly inside the bracket, so every depth read below
   the answer fails epsilon and every depth read at or above it meets
   it, and the answer is [hi] once [hi = lo + 1].

   The first read is [first_read].  If it fails, the search gallops up
   from it, doubling the stride, until a read meets epsilon.  If it
   meets, a secant step on r^z, [first + ln (epsilon / risk) / ln r],
   predicts the crossing and reads the depth just below it; from there
   it gallops down while reads meet and up while they fail.  Either way
   it bisects the bracket that is left. *)
let search ~limit ~ratio ~epsilon risk =
  let rec bisect lo hi w =
    if hi - lo <= 1 then if hi > limit then None else Some (hi, w)
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let r = risk mid in
      if r <= epsilon then bisect lo mid r else bisect mid hi w
    end
  in
  let rec down lo hi w stride =
    let z = max (lo + 1) (hi - stride) in
    if z = hi then bisect lo hi w
    else begin
      let r = risk z in
      if r <= epsilon then down lo z r (2 * stride) else bisect z hi w
    end
  in
  let rec up lo hi w stride =
    let z = min (hi - 1) (lo + stride) in
    if z = lo then bisect lo hi w
    else begin
      let r = risk z in
      if r <= epsilon then bisect lo z r else up z hi w (2 * stride)
    end
  in
  let first = first_read ~limit ~ratio ~epsilon () in
  let r = risk first in
  if r > epsilon then up first (limit + 1) nan 1
  else if first = 1 then Some (1, r)
  else begin
    let log_r = log ratio +. (1. -. ratio) in
    let crossing = float_of_int first +. ((log epsilon -. log r) /. log_r) in
    let below = depth_in ~lo:2 ~hi:first crossing - 1 in
    let rb = risk below in
    if rb <= epsilon then down 0 below rb 1 else up below first r 1
  end

let check_search_args ~limit ~ratio ~epsilon =
  if not (ratio > 0. && ratio < 1.) then
    invalid_arg "Confirmation.confirmations_for: ratio must lie in (0, 1)";
  if not (epsilon >= min_epsilon && epsilon < 1.) then
    invalid_arg "Confirmation.confirmations_for: epsilon must lie in [1e-9, 1)";
  if limit < 1 then
    invalid_arg "Confirmation.confirmations_for: limit must be >= 1"

let depth_search ~limit ~ratio ~epsilon =
  check_search_args ~limit ~ratio ~epsilon;
  search ~limit ~ratio ~epsilon (fun z ->
      nakamoto_double_spend ~ratio ~confirmations:z)

let search_reads ?(limit = default_depth_limit) ~ratio ~epsilon () =
  check_search_args ~limit ~ratio ~epsilon;
  let reads = ref [] in
  ignore
    (search ~limit ~ratio ~epsilon (fun z ->
         reads := z :: !reads;
         nakamoto_double_spend ~ratio ~confirmations:z));
  List.rev !reads

let deepest_read ?(limit = default_depth_limit) ~first depth =
  min limit (if first >= depth then first else (2 * depth) - first - 1)

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
    let rate_ratio =
      if adversary_rate >= Float.min_float then adversary_rate /. honest_rate
      else
        (* At a tiny nu > 0, p nu n is subnormal or 0 while the quotient
           itself is about nu: take it in logs there, and only there, so
           every ratio with a normal adversary rate keeps its bits. *)
        exp (Params.log_adversary_rate params -. log honest_rate)
    in
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
