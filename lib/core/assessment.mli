(** One-call security assessment of a parameter point.

    Everything a protocol designer asks of this library in a single
    structured verdict: where the point sits relative to every bound,
    with how much margin, and what it implies operationally (confirmation
    depth, growth/quality envelopes).  This is the API the README's
    "thirty-second tour" builds toward; the CLI's [assess] subcommand
    renders it. *)

type zone =
  | Safe  (** above our bound: consistency guaranteed (Theorem 2) *)
  | Gap
      (** between our bound and the PSS attack line: no guarantee, no
          known attack — the open region of the paper's conclusion.  The
          PSS attack line is also the boundary of the tight condition
          [lambda_a < lambda_h / (1 + lambda_h Delta)] of Li–Guo–Ren
          (arXiv 2011.14051) and Cao–Guo (arXiv 2312.05506), which is
          [c > mu nu / (mu - nu)] here.  So in their continuous-time
          model Gap means consistent under the tight condition, not
          proved so by this paper's bound. *)
  | Broken  (** at or below the PSS attack line: provably attackable *)

type suffix_diagnostics = {
  suffix_states : int;  (** [2 delta + 1] *)
  suffix_sparse : bool;
      (** whether the solve ran above {!Nakamoto_markov.Chain.sparse_crossover} *)
  suffix_deep_mass : float;  (** solved stationary mass of [HN^{>=Δ}] *)
  suffix_max_abs_error : float;  (** max abs deviation from Eq. 37 *)
}
(** Solver health probe on the suffix chain [C_F] at this point's Δ:
    the stationary distribution via {!Nakamoto_markov.Chain.stationary_auto}
    (dense LU below the crossover, the sparse substrate above) checked
    against the closed form.  Computed by {!diagnose}, never by
    {!assess}. *)

type t = {
  params : Params.t;
  zone : zone;
  neat_threshold : float;  (** [2 mu / ln (mu/nu)] *)
  neat_margin : float;  (** [c - neat_threshold] (positive = safe side) *)
  theorem1_log_margin : float;  (** log-domain slack of Ineq. 10 *)
  theorem2_exact_threshold : float;
      (** the eps1-optimized finite-Delta threshold of Ineq. 11 *)
  pss_threshold : float;
      (** minimum c under the closed-form PSS consistency bound
          ([2 (1-nu)^2 / (1-2nu)]), or [infinity] for [nu >= 1/2] *)
  attack_threshold : float;  (** the PSS attack succeeds for c below this *)
  confirmations : Confirmation.assessment option;
      (** settlement depth at the risk target [assess] was given; [None] when
          [nu = 0] or the point is outside the consistency region *)
  confirmation_failure : Confirmation.unavailable option;
      (** why [confirmations] is [None], when it is *)
  growth_bounds : float * float;  (** (pessimistic, optimistic) per round *)
  quality_bound : float;  (** delta-adjusted chain-quality floor *)
}
(** The verdict: bounds, margins, envelopes and the settlement depth.
    Every field is closed form or the depth search; no Markov chain is
    solved (see {!diagnose} for that). *)

val assess : ?epsilon:float -> Params.t -> t
(** [assess params] computes the verdict, searching the settlement depth
    at risk target [epsilon] (default [1e-3], as
    {!Confirmation.assess_checked}).  Never raises for valid {!Params.t}
    values and an [epsilon] in [[Confirmation.min_epsilon, 1)] (the
    confirmation sub-assessment degrades to [None] instead).
    @raise Invalid_argument when the depth search runs and [epsilon] is
    outside that range.

    Costs the bound inversions plus the depth search (microseconds),
    whatever Δ is: the suffix-chain probe is {!diagnose}'s job. *)

val diagnose : Params.t -> suffix_diagnostics option
(** [diagnose params] solves the Δ-state suffix chain [C_F] at
    [params]' Δ and α and checks it against Eq. 37.  [None] when Δ is
    not a small integer ([1 <= Δ <= 4096]; the chain is only enumerable
    for integer Δ), when α is outside (0, 1), or when the solve fails.
    A diagnostic, not part of the verdict: its cost grows with Δ
    (milliseconds at Δ ≈ 2000), which is why {!assess} does not call
    it.  The CLI runs it for a point-mode [assess], not for a batch. *)

val pp_diagnostics : Format.formatter -> suffix_diagnostics option -> unit
(** The one-line [suffix chain C_F] rendering of {!diagnose}'s result,
    aligned with {!pp}'s rows. *)

val zone_to_string : zone -> string

val pp : Format.formatter -> t -> unit
(** Multi-line human rendering. *)

type verdict = {
  v_params : Params.t;
  v_zone : zone;
  v_margin : float;  (** neat margin, point estimate *)
  v_margin_lo : float;
  v_margin_hi : float;
      (** certified enclosure of the margin; degenerate (equal to
          [v_margin]) when the answer came from the exact solver *)
  v_confirmations : int option;
  v_conf_reason : string option;
      (** {!Confirmation.unavailable_label} tag when confirmations are
          [None] *)
  v_cached : bool;  (** answered from a precomputed surface *)
  v_fallback : string option;
      (** when a surface query fell back to the exact solver, why:
          ["outside_box"] | ["zone_boundary"] | ["conf_boundary"] *)
}
(** The compact query-serving answer: what a cached surface can return
    in common with the exact solver.  [Nakamoto_surface.Table] answers
    these from its cells; {!verdict_of} projects a full exact
    {!t} onto one (with [v_cached = false]). *)

val verdict_of : t -> verdict

val to_table : t list -> Nakamoto_numerics.Table.t
(** One row per assessed point. *)
