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

(* Bounds.neat_c_min: [2. *. mu /. log (mu /. nu)] with [mu = 1. -. nu] *)
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
   [log_alpha1 = log (p *. mu *. n) +. ((mu *. n -. 1.) *. log1p (-. p))]. *)
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

(* Confirmation.nakamoto_double_spend computes
   [clamp 0 1 (1. -. acc)] with
   [acc = sum_k exp log_pois *. (1. -. ratio ** float (z - k))].
   Mirroring that subtraction literally is useless over a box: the
   interval enclosure of [acc ~= 1] is as wide as the lambda spread,
   which swamps a double-spend probability of 1e-4.  So this enclosure
   takes the algebraically identical positive form

     ds = sum_{k=0}^{z} P_k(lambda) * ratio^(z-k)  +  P(X > z)

   (every term nonnegative, no cancellation), bounds the Poisson tail by
   geometric domination — the term ratio P_{k+1}/P_k = lambda/(k+1) is
   at most lambda/(z+2) past z, so

     P_{z+1}  <=  P(X > z)  <=  P_{z+1} / (1 - lambda/(z+2))

   — and then pads outward by a forward rounding-error bound for the
   exact solver's float evaluation of the subtraction form.  The pad
   covers: log_fact accumulated over <= 2z ops on a value <= z log z,
   amplified through exp at derivative <= 1; libm pow within a few
   ulps; and z+1 summations of terms <= 1.  Each contributes O(z^2)
   ulps absolute, so 1e-12 + z^2 * 1e-13 dominates by orders of
   magnitude.  The padded interval therefore contains the exact
   solver's float at every ratio in the box, which is the containment
   {!certify_conf} needs; against thresholds like epsilon = 1e-3 the
   pad is invisible. *)
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

let certify_conf ~epsilon ~conf_limit ratio =
  (* [Conf z] is sound because the exact search reads the risk only at
     depths below [z] and at [Confirmation.search_probes z], and returns
     [z] once every depth it reads below [z] fails epsilon and every
     depth it reads at or above [z] meets it.  So: walk z = 1, 2, ...
     certifying each depth above epsilon (lo > eps) until one is
     certified at-or-below (hi <= eps), then certify every galloping or
     bisection probe past [z] at-or-below as well.  Any straddle means
     the exact answer could go either way inside the cell —
     inconclusive, fall back. *)
  let meets z = I.hi (double_spend_iv ~ratio ~confirmations:z) <= epsilon in
  let limit = min conf_limit Nakamoto_core.Confirmation.default_depth_limit in
  if I.lo ratio >= 1. then Conf_none
  else if I.hi ratio >= 1. then Conf_inconclusive
  else begin
    let rec search z =
      if z > limit then Conf_inconclusive
      else begin
        let ds = double_spend_iv ~ratio ~confirmations:z in
        if I.hi ds <= epsilon then
          if
            List.for_all
              (fun probe -> probe <= z || meets probe)
              (Nakamoto_core.Confirmation.search_probes z)
          then Conf z
          else Conf_inconclusive
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
