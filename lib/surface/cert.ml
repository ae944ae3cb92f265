module I = Nakamoto_numerics.Interval
module Assessment = Nakamoto_core.Assessment

type zone_cert = Zone of Assessment.zone | Zone_inconclusive
type conf_cert = Conf of int | Conf_none | Conf_inconclusive

type cell = {
  zone : zone_cert;
  conf : conf_cert;
  margin : I.t;
  neat : I.t;
  attack : I.t;
  ratio : I.t;
}

let one = I.point 1.
let two = I.point 2.

(* Every mirror below replays the exact solver's float expression with
   the {e same} operation tree, only over intervals.  Round-to-nearest
   keeps each primitive within one ulp of its true result and each
   interval op widens one ulp outward, so by induction the enclosure
   contains the float the exact solver computes at every point of the
   box — which is what lets a conclusive comparison of enclosures stand
   in for the exact solver's verdict. *)

(* Params.c: [1. /. (p *. n *. delta)] *)
let c_iv ~p ~n ~delta = I.div one (I.mul (I.mul p n) delta)

(* Bounds.neat_c_min: [2. *. mu /. log (mu /. nu)] with [mu = 1. -. nu],
   or [log mu -. log nu] in place of the log where a subnormal nu
   overflows the quotient.  That value lies in (709.78, 744.45], above
   the log of any finite quotient, and the widened quotient's upper end
   is then [infinity], so this enclosure still contains it. *)
let neat_iv ~nu =
  let mu = I.one_minus nu in
  I.div (I.mul two mu) (I.log (I.div mu nu))

(* Assessment.assess: [1. /. ((1. /. nu) -. (1. /. mu))] *)
let attack_iv ~nu =
  let mu = I.one_minus nu in
  I.div one (I.sub (I.div one nu) (I.div one mu))

(* Confirmation.assess_checked's rate ratio:
   [adversary_rate /. honest_rate] where
   [adversary_rate = p *. nu *. n] (Params.adversary_rate) and
   [honest_rate = exp ((2. *. delta *. log_abar) +. log_alpha1)]
   (Conv_chain.convergence_rate), with
   [log_abar  = (mu *. n) *. log1p (-. p)] and
   [log_alpha1 = log (p *. mu *. n) +. ((mu *. n -. 1.) *. log1p (-. p))].
   Where p nu is subnormal the float code takes p n first, and where the
   rate is subnormal it takes the ratio in logs; the interval product
   below encloses the exact p nu n whatever the float order, so it
   encloses the ratio on either path. *)
let ratio_iv ~p ~n ~delta ~nu =
  let mu = I.one_minus nu in
  let log1p_neg_p = I.log1p (I.neg p) in
  let log_abar = I.mul (I.mul mu n) log1p_neg_p in
  let log_alpha1 =
    I.add
      (I.log (I.mul (I.mul p mu) n))
      (I.mul (I.sub (I.mul mu n) one) log1p_neg_p)
  in
  let log_honest = I.add (I.mul (I.mul two delta) log_abar) log_alpha1 in
  let adversary = I.mul (I.mul p nu) n in
  I.div adversary (I.exp log_honest)

(* Confirmation.nakamoto_double_spend evaluates Nakamoto's [1 - sum]
   as the positive two-term form P(X > z) + r^z P(Pois(z) <= z), X
   Poisson with mean lambda = z ratio: a Poisson mass a = e^-lambda
   lambda^z / z! times a head and a tail sum, each run until it stops
   changing.  This enclosure takes the same positive form written the
   other way round,

     ds = sum_{k=0}^{z} P_k(lambda) * ratio^(z-k)  +  P(X > z)

   (every term nonnegative, no cancellation), bounds the Poisson tail by
   geometric domination — the term ratio P_{k+1}/P_k = lambda/(k+1) is
   at most lambda/(z+2) past z, so

     P_{z+1}  <=  P(X > z)  <=  P_{z+1} / (1 - lambda/(z+2))

   — and then pads outward by a bound on the exact solver's float
   error.  That float is within O(z (1 + |log lambda|)) ulps relative of
   the true risk: z log lambda - lambda - log z! carries the exponent of
   a, and each sum at most z + 1 roundings and a truncation below half
   an ulp of at most z + 1 times its last term.  Where |log lambda| is
   large lambda < 1, and the risk is at most (z + 2) lambda^z, so the
   absolute error is a few z^2 ulps at worst; the tests measure 1.1e-11
   relative up to z = 10^4.  The pad 1e-12 + z^2 * 1e-13 is over 450
   z^2 ulps, so the padded interval contains the exact solver's float
   at every ratio in the box, which is the containment {!certify_conf}
   needs; against thresholds like epsilon = 1e-3 the pad is
   invisible. *)
let double_spend_iv ~ratio ~confirmations:z =
  let lambda = I.mul (I.point (float_of_int z)) ratio in
  let log_lambda = I.log lambda in
  let log_fact = ref (I.point 0.) in
  let log_pois k =
    I.sub (I.sub (I.mul (I.point (float_of_int k)) log_lambda) lambda)
      !log_fact
  in
  let survive = ref (I.point 0.) in
  for k = 0 to z do
    if k > 0 then
      log_fact := I.add !log_fact (I.log (I.point (float_of_int k)));
    let caught = I.pow ratio (float_of_int (z - k)) in
    survive := I.add !survive (I.mul (I.exp (log_pois k)) caught)
  done;
  log_fact := I.add !log_fact (I.log (I.point (float_of_int (z + 1))));
  let p_next = I.exp (log_pois (z + 1)) in
  let denom =
    I.sub one (I.div lambda (I.point (float_of_int (z + 2))))
  in
  let tail = I.make ~lo:(I.lo p_next) ~hi:(I.hi (I.div p_next denom)) in
  let ds = I.add !survive tail in
  let pad = 1e-12 +. (float_of_int (z * z) *. 1e-13) in
  I.clamp ~lo:0. ~hi:1. (I.make ~lo:(I.lo ds -. pad) ~hi:(I.hi ds +. pad))

let top = I.make ~lo:neg_infinity ~hi:infinity
let nonneg = I.make ~lo:0. ~hi:infinity

(* Confirmation.first_read: the ceiling, clamped to
   [[1, default_depth_limit]], of four steps from z = 1 of
   [Float.max 1. ((log epsilon -. log factor) /. log_r)] with
   [log_r = log ratio +. (1. -. ratio)] and
   [factor = 0.5 +. (ratio /. (1. -. ratio)) /. ((2. *. Float.pi *. z) ** 0.5)].
   [2. *. Float.pi] doubles exactly, and [log epsilon] is one float at
   every point of the box.  Returns the range of first reads. *)
let first_read_iv ~epsilon ratio =
  let log_r = I.add (I.log ratio) (I.one_minus ratio) in
  let excess = I.div ratio (I.one_minus ratio) in
  let log_epsilon = I.point (log epsilon) in
  let step z =
    let root = I.pow (I.mul (I.point (2. *. Float.pi)) z) 0.5 in
    let factor = I.add (I.point 0.5) (I.div excess root) in
    I.clamp ~lo:1. ~hi:infinity
      (I.div (I.sub log_epsilon (I.log factor)) log_r)
  in
  let z = step (step (step (step (I.point 1.)))) in
  let limit = float_of_int Nakamoto_core.Confirmation.default_depth_limit in
  let depth x = int_of_float (Float.ceil (Float.min limit x)) in
  (depth (I.lo z), depth (I.hi z))

let certify_conf ~epsilon ~conf_limit ratio =
  (* [Conf z] is sound because the exact search returns [z] once every
     depth it reads below [z] fails epsilon and every depth it reads at
     or above [z] meets it, and it reads nothing past
     [Confirmation.deepest_read ~first z], where [first] is its first
     read.  So: walk z = 1, 2, ... certifying each depth above epsilon
     (lo > eps) until one is certified at-or-below (hi <= eps), then
     certify every depth up to the deepest read at either end of the
     cell's range of first reads (the bound is largest at an end) as
     well.  Any straddle means the exact answer could go either way
     inside the cell — inconclusive, fall back. *)
  let meets z = I.hi (double_spend_iv ~ratio ~confirmations:z) <= epsilon in
  let limit = min conf_limit Nakamoto_core.Confirmation.default_depth_limit in
  if I.lo ratio >= 1. then Conf_none
  else if I.hi ratio >= 1. then Conf_inconclusive
  else begin
    let certified z =
      let first_lo, first_hi = first_read_iv ~epsilon ratio in
      let deepest first = Nakamoto_core.Confirmation.deepest_read ~first z in
      let bound = max (deepest first_lo) (deepest first_hi) in
      let rec above d = d > bound || (meets d && above (d + 1)) in
      if above (z + 1) then Conf z else Conf_inconclusive
    in
    let rec search z =
      if z > limit then Conf_inconclusive
      else begin
        let ds = double_spend_iv ~ratio ~confirmations:z in
        if I.hi ds <= epsilon then certified z
        else if I.lo ds <= epsilon then Conf_inconclusive
        else search (z + 1)
      end
    in
    try search 1 with Invalid_argument _ -> Conf_inconclusive
  end

let subdivide refine iv =
  (* Linear split with exact endpoints: adjacent sub-intervals share a
     vertex, so the union covers the cell with no gap a point could
     fall through. *)
  let lo = I.lo iv and hi = I.hi iv in
  Array.init refine (fun k ->
      let at j =
        if j = 0 then lo
        else if j = refine then hi
        else lo +. ((hi -. lo) *. (float_of_int j /. float_of_int refine))
      in
      I.make ~lo:(at k) ~hi:(at (k + 1)))

let conf_join a b =
  match (a, b) with
  | Conf x, Conf y when x = y -> Conf x
  | Conf_none, Conf_none -> Conf_none
  | _ -> Conf_inconclusive

let certify_conf_refined ~epsilon ~conf_limit ~refine ~p ~n ~delta ~nu =
  (* The naive ratio enclosure suffers the classic dependency blow-up —
     p and n appear in both the adversary rate and (through alpha1) the
     honest rate, and the interval quotient cannot see they are the same
     values, so the width scales with the square of the cell's spread.
     Refinement wins it back soundly: cover the cell with refine^4
     sub-boxes, certify each independently, and accept only a unanimous
     verdict — every parameter point lies in some sub-box, so unanimity
     certifies the whole cell. *)
  let boxes d =
    subdivide refine (match d with 0 -> p | 1 -> n | 2 -> delta | _ -> nu)
  in
  let ps = boxes 0 and ns = boxes 1 and ds = boxes 2 and nus = boxes 3 in
  let verdict = ref None in
  (try
     Array.iter
       (fun p ->
         Array.iter
           (fun n ->
             Array.iter
               (fun delta ->
                 Array.iter
                   (fun nu ->
                     let v =
                       match ratio_iv ~p ~n ~delta ~nu with
                       | r -> certify_conf ~epsilon ~conf_limit r
                       | exception Invalid_argument _ -> Conf_inconclusive
                     in
                     let joined =
                       match !verdict with
                       | None -> v
                       | Some prev -> conf_join prev v
                     in
                     if joined = Conf_inconclusive then raise Exit;
                     verdict := Some joined)
                   nus)
               ds)
           ns)
       ps;
     match !verdict with Some v -> v | None -> Conf_inconclusive
   with Exit -> Conf_inconclusive)

let certify ~refine ~epsilon ~conf_limit ~p ~n ~delta ~nu =
  let c = c_iv ~p ~n ~delta in
  (* Near nu = 1/2 the widened denominators can straddle zero and the
     interval ops refuse (div-by-zero-containing, log of nonpositive);
     an unrepresentable enclosure is just the trivially-true one, and
     the verdict goes inconclusive. *)
  let thresholds =
    match (neat_iv ~nu, attack_iv ~nu) with
    | pair -> Some pair
    | exception Invalid_argument _ -> None
  in
  let zone, margin, neat, attack =
    match thresholds with
    | None -> (Zone_inconclusive, top, top, top)
    | Some (neat, attack) ->
      let margin = I.sub c neat in
      let zone =
        if I.lo c > I.hi neat then Zone Assessment.Safe
        else if I.hi c <= I.lo neat && I.hi c < I.lo attack then
          Zone Assessment.Broken
        else if I.hi c <= I.lo neat && I.lo c >= I.hi attack then
          Zone Assessment.Gap
        else Zone_inconclusive
      in
      (zone, margin, neat, attack)
  in
  if refine < 1 then invalid_arg "Cert.certify: refine must be >= 1";
  let ratio =
    match ratio_iv ~p ~n ~delta ~nu with
    | r -> Some r
    | exception Invalid_argument _ -> None
  in
  let conf =
    match ratio with
    | Some r when refine = 1 -> certify_conf ~epsilon ~conf_limit r
    | _ -> certify_conf_refined ~epsilon ~conf_limit ~refine ~p ~n ~delta ~nu
  in
  {
    zone;
    conf;
    margin;
    neat;
    attack;
    ratio = (match ratio with Some r -> r | None -> nonneg);
  }
