module Table = Nakamoto_numerics.Table
module Chain = Nakamoto_markov.Chain
module Linalg = Nakamoto_numerics.Linalg

type zone = Safe | Gap | Broken

type suffix_diagnostics = {
  suffix_states : int;
  suffix_sparse : bool;
  suffix_deep_mass : float;
  suffix_max_abs_error : float;
}

type t = {
  params : Params.t;
  zone : zone;
  neat_threshold : float;
  neat_margin : float;
  theorem1_log_margin : float;
  theorem2_exact_threshold : float;
  pss_threshold : float;
  attack_threshold : float;
  confirmations : Confirmation.assessment option;
  confirmation_failure : Confirmation.unavailable option;
  growth_bounds : float * float;
  quality_bound : float;
}

let zone_to_string = function
  | Safe -> "SAFE"
  | Gap -> "GAP"
  | Broken -> "BROKEN"

let assess ?epsilon (params : Params.t) =
  let c = Params.c params in
  let nu = params.nu in
  let neat_threshold =
    if nu = 0. then 0. else Bounds.neat_c_min ~nu
  in
  let attack_threshold =
    (* The attack needs nu > pss_attack_nu c, i.e. c < 1/(1/nu - 1/mu). *)
    if nu = 0. then 0. else 1. /. ((1. /. nu) -. (1. /. Params.mu params))
  in
  let zone =
    if nu = 0. || c > neat_threshold then Safe
    else if c < attack_threshold then Broken
    else Gap
  in
  let confirmations, confirmation_failure =
    (* Degrades to None outside the consistency region, and when the
       ratio is so close to 1 that no depth within the search limit
       suffices — the typed reason is kept alongside so batch callers
       can report why. *)
    match Confirmation.assess_checked ?epsilon params with
    | Ok a -> (Some a, None)
    | Error reason -> (None, Some reason)
  in
  {
    params;
    zone;
    neat_threshold;
    neat_margin = c -. neat_threshold;
    theorem1_log_margin = Bounds.theorem1_margin params;
    theorem2_exact_threshold =
      (if nu = 0. then 0.
       else Bounds.theorem2_c_min_optimal ~nu ~delta:params.delta ~eps2:1e-9);
    pss_threshold =
      (if nu = 0. then 0.
       else if nu >= 0.5 then infinity
       else 2. *. Params.mu params *. Params.mu params /. (1. -. (2. *. nu)));
    attack_threshold;
    confirmations;
    confirmation_failure;
    growth_bounds =
      ( Growth_quality.growth_rate_lower_bound params,
        Growth_quality.growth_rate_upper_bound params );
    quality_bound = Growth_quality.quality_delta_adjusted params;
  }

let diagnose (params : Params.t) =
  (* Only for enumerable integer Δ: solves C_F through the dense/sparse
     auto route and cross-checks Eq. 37.  Internet-scale Δ (e.g.
     Bitcoin's 10^13) has no chain to enumerate. *)
  let delta = params.delta in
  let alpha = Params.alpha params in
  if Float.is_integer delta && delta >= 1. && delta <= 4096. && alpha > 0.
     && alpha < 1.
  then
    let d = int_of_float delta in
    match
      let chain = Suffix_chain.build ~delta:d ~alpha in
      let pi = Chain.stationary_auto chain in
      let closed = Suffix_chain.stationary_closed_form ~delta:d ~alpha in
      let states = Chain.size chain in
      {
        suffix_states = states;
        suffix_sparse = states > Chain.sparse_crossover;
        suffix_deep_mass =
          pi.(Suffix_chain.index_of_state ~delta:d Suffix_chain.Deep);
        suffix_max_abs_error = Linalg.max_abs_diff pi closed;
      }
    with
    | diag -> Some diag
    | exception Invalid_argument _ -> None
    | exception Failure _ -> None
  else None

let pp_diagnostics fmt = function
  | Some d ->
    Format.fprintf fmt
      "  suffix chain C_F       %d states via %s, |Eq.37 - solve| <= %.2e"
      d.suffix_states
      (if d.suffix_sparse then "sparse" else "dense")
      d.suffix_max_abs_error
  | None -> Format.fprintf fmt "  suffix chain C_F       n/a (Delta not enumerable)"

let pp fmt t =
  let c = Params.c t.params in
  Format.fprintf fmt "@[<v>assessment of %a@," Params.pp t.params;
  Format.fprintf fmt "  zone                   %s@," (zone_to_string t.zone);
  Format.fprintf fmt "  c                      %.4f@," c;
  Format.fprintf fmt "  our bound (Thm 2)      c > %.4f  (margin %+.4f)@,"
    t.neat_threshold t.neat_margin;
  Format.fprintf fmt "  Thm 2 exact threshold  c >= %.4f@," t.theorem2_exact_threshold;
  Format.fprintf fmt "  Thm 1 log-margin       %+.4f@," t.theorem1_log_margin;
  Format.fprintf fmt "  PSS consistency needs  c > %.4f@," t.pss_threshold;
  Format.fprintf fmt "  PSS attack wins for    c < %.4f@," t.attack_threshold;
  (match t.confirmations with
  | Some a ->
    Format.fprintf fmt "  confirmations (1e-3)   %d (residual %.2e)@,"
      a.Confirmation.confirmations a.Confirmation.residual_risk
  | None ->
    let reason =
      match t.confirmation_failure with
      | Some r -> Printf.sprintf " (%s)" (Confirmation.unavailable_label r)
      | None -> ""
    in
    Format.fprintf fmt "  confirmations          n/a%s@," reason);
  let lo, hi = t.growth_bounds in
  Format.fprintf fmt "  growth per round       [%.4g, %.4g]@," lo hi;
  Format.fprintf fmt "  quality floor          %.4f@]" t.quality_bound

type verdict = {
  v_params : Params.t;
  v_zone : zone;
  v_margin : float;
  v_margin_lo : float;
  v_margin_hi : float;
  v_confirmations : int option;
  v_conf_reason : string option;
  v_cached : bool;
  v_fallback : string option;
}

let verdict_of (t : t) =
  {
    v_params = t.params;
    v_zone = t.zone;
    v_margin = t.neat_margin;
    v_margin_lo = t.neat_margin;
    v_margin_hi = t.neat_margin;
    v_confirmations =
      Option.map (fun a -> a.Confirmation.confirmations) t.confirmations;
    v_conf_reason =
      Option.map Confirmation.unavailable_label t.confirmation_failure;
    v_cached = false;
    v_fallback = None;
  }

let to_table assessments =
  let t =
    Table.create ~title:"Security assessments"
      ~columns:
        [ "nu"; "c"; "zone"; "our bound"; "Thm1 margin"; "PSS bound";
          "attack below"; "confirmations"; "quality floor" ]
  in
  List.iter
    (fun a ->
      Table.add_row t
        [
          Table.Float a.params.Params.nu;
          Table.Float (Params.c a.params);
          Table.Text (zone_to_string a.zone);
          Table.Float a.neat_threshold;
          Table.Float a.theorem1_log_margin;
          Table.Float a.pss_threshold;
          Table.Float a.attack_threshold;
          (match a.confirmations with
          | Some c -> Table.Int c.Confirmation.confirmations
          | None -> Table.Text "-");
          Table.Float a.quality_bound;
        ])
    assessments;
  t
