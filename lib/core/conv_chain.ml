module Chain = Nakamoto_markov.Chain

type detailed = N | H1 | Hm

let detailed_probability (p : Params.t) = function
  | N -> Params.abar p
  | H1 -> Params.alpha1 p
  | Hm -> Params.alpha p -. Params.alpha1 p

let log_convergence_rate (p : Params.t) =
  (2. *. p.delta *. Params.log_abar p) +. Params.log_alpha1 p

let convergence_rate p = exp (log_convergence_rate p)

let expected_convergence_count p ~horizon =
  if horizon < 0 then
    invalid_arg "Conv_chain.expected_convergence_count: negative horizon";
  float_of_int horizon *. convergence_rate p

let expected_adversary_blocks (p : Params.t) ~horizon =
  if horizon < 0 then
    invalid_arg "Conv_chain.expected_adversary_blocks: negative horizon";
  float_of_int horizon *. Params.adversary_rate p

type explicit = {
  chain : Chain.t;
  delta : int;
  convergence_state : int;
}

let detailed_code = function N -> 0 | H1 -> 1 | Hm -> 2
let detailed_of_code = function
  | 0 -> N
  | 1 -> H1
  | 2 -> Hm
  | _ -> invalid_arg "Conv_chain: bad detailed code"

let window_size ~delta = delta + 1

let pow3 k =
  let rec go acc k = if k = 0 then acc else go (3 * acc) (k - 1) in
  go 1 k

let index_of ~delta suffix window =
  if List.length window <> window_size ~delta then
    invalid_arg "Conv_chain.index_of: window must have delta + 1 entries";
  let w_index =
    List.fold_left (fun acc d -> (3 * acc) + detailed_code d) 0 window
  in
  (Suffix_chain.index_of_state ~delta suffix * pow3 (window_size ~delta))
  + w_index

let state_of ~delta index =
  let base = pow3 (window_size ~delta) in
  if index < 0 || index >= Suffix_chain.state_count ~delta * base then
    invalid_arg "Conv_chain.state_of: index out of range";
  let suffix = Suffix_chain.state_of_index ~delta (index / base) in
  let rec decode acc k rem =
    if k = 0 then acc
    else decode (detailed_of_code (rem mod 3) :: acc) (k - 1) (rem / 3)
  in
  (suffix, decode [] (window_size ~delta) (index mod base))

let is_h_detailed = function N -> false | H1 | Hm -> true

(* Renormalized detailed probabilities: the closed forms sum to 1 only up
   to rounding, and Chain.create insists on exact rows. *)
let normalized_probs caller (p : Params.t) =
  let probs = [ (N, detailed_probability p N); (H1, detailed_probability p H1);
                (Hm, detailed_probability p Hm) ] in
  List.iter
    (fun (_, q) ->
      if not (q > 0.) then
        invalid_arg
          (caller ^ ": every detailed probability must be positive"))
    probs;
  let total = List.fold_left (fun acc (_, q) -> acc +. q) 0. probs in
  List.map (fun (d, q) -> (d, q /. total)) probs

(* The band-aware row: shift the oldest window symbol into the suffix
   class, append each of the three possible new symbols. *)
let transition_row ~delta probs i =
  let suffix, window = state_of ~delta i in
  match window with
  | [] -> assert false
  | oldest :: rest ->
    let suffix' = Suffix_chain.step ~delta suffix ~h:(is_h_detailed oldest) in
    List.map (fun (d, q) -> (index_of ~delta suffix' (rest @ [ d ]), q)) probs

let convergence_index ~delta =
  index_of ~delta Suffix_chain.Deep (H1 :: List.init delta (fun _ -> N))

let build_explicit ~delta (p : Params.t) =
  if delta < 1 || delta > 6 then
    invalid_arg "Conv_chain.build_explicit: delta must lie in [1, 6]";
  let probs = normalized_probs "Conv_chain.build_explicit" p in
  let size = Suffix_chain.state_count ~delta * pow3 (window_size ~delta) in
  let rows = Array.init size (fun i -> transition_row ~delta probs i) in
  let chain = Chain.create ~size ~rows () in
  { chain; delta; convergence_state = convergence_index ~delta }

let build_sparse ~delta (p : Params.t) =
  (* The CSR build never materializes the row array, so the cap can sit
     above the dense builder's: (2*8+1) * 3^9 = 334_611 states, 3 entries
     each. *)
  if delta < 1 || delta > 8 then
    invalid_arg "Conv_chain.build_sparse: delta must lie in [1, 8]";
  let probs = normalized_probs "Conv_chain.build_sparse" p in
  let size = Suffix_chain.state_count ~delta * pow3 (window_size ~delta) in
  Nakamoto_markov.Sparse.of_fn ~rows:size ~cols:size
    (transition_row ~delta probs)

let product_stationary ~delta (p : Params.t) ~index =
  let suffix, window = state_of ~delta index in
  let pi_f =
    exp
      (Suffix_chain.log_stationary ~delta:(float_of_int delta)
         ~log_abar:(Params.log_abar p) ~state:suffix)
  in
  List.fold_left (fun acc d -> acc *. detailed_probability p d) pi_f window

type cross_check = {
  closed_form : float;
  product_form : float;
  linear_solve : float;
  power_iteration : float;
}

let stationary_cross_check ~delta p =
  let e = build_explicit ~delta p in
  let pi_solve = Chain.stationary_linear_solve e.chain in
  let pi_power = Chain.stationary_power_iteration e.chain in
  {
    closed_form = convergence_rate p;
    product_form = product_stationary ~delta p ~index:e.convergence_state;
    linear_solve = pi_solve.(e.convergence_state);
    power_iteration = pi_power.(e.convergence_state);
  }

module Sparse = Nakamoto_markov.Sparse

type sparse_cross_check = {
  eq44 : float;
  eq40 : float;
  sparse_stationary : float;
  sparse_power : float;
}

let stationary_cross_check_sparse ~delta p =
  let sp = build_sparse ~delta p in
  let target = convergence_index ~delta in
  let pi_stationary =
    match Sparse.stationary_censor sp with
    | Some pi -> pi
    | None -> Sparse.stationary_power sp
  in
  let pi_power = Sparse.stationary_power sp in
  {
    eq44 = convergence_rate p;
    eq40 = product_stationary ~delta p ~index:target;
    sparse_stationary = pi_stationary.(target);
    sparse_power = pi_power.(target);
  }
