(** The differential oracle: one generated scenario, every implementation.

    The repo carries four independent implementations of the same
    Δ-delay mining law (the full-network [Exact] executor, the
    [Aggregate] fast path, the round-skipping [Skip] fast path, and the
    network-free state process) and four
    independent derivations of the stationary convergence-opportunity
    probability (explicit chain by linear solve, by power iteration, the
    product formula Eq. 40, and the closed form Eq. 44).  The oracle runs
    them against each other on generated inputs:

    - each executor lane's iid counters (H-rounds, H1-rounds, honest and
      adversarial block totals) are tested against the paper's exact
      binomial laws — agreement with theory implies pairwise agreement;
    - per-round honest-block-count histograms and
      convergence-opportunity rates are compared pairwise
      (chi-square homogeneity / proportions; the [Skip] lane's skipped
      rounds are provably empty and are reconciled into the zero bin
      first);
    - Exact-vs-Aggregate and Exact-vs-Skip chain growth are compared
      (the state lane has no chains);
    - every lane's convergence-opportunity count must sit in a generous
      envelope around Eq. 26's expectation.

    All statistical checks go through one Bonferroni-corrected family
    ({!Stat.assert_family}), so a scenario either passes deterministically
    at its seed or names the offending lane and statistic. *)

val check : ?alpha:float -> Nakamoto_sim.Scenarios.spec -> unit
(** [check spec] runs the four lanes (each under an independent seed
    derived from [spec.seed] by the audited path derivation; the spec's
    own [mining_mode] is ignored) and asserts every cross-check: envelope
    checks per lane, then the statistical family at [alpha] (default
    [1e-6]).
    @raise Failure on an envelope violation.
    @raise Stat.Rejected on a statistical disagreement.
    @raise Invalid_argument if the spec cannot run in every lane (use
    {!Domain_gen.oracle_spec}). *)

val suffix_stationary : delta:int -> alpha:float -> unit
(** Asserts the suffix chain [C_F]'s closed-form stationary distribution
    (Eq. 37) against the explicit chain's linear solve and power
    iteration, state by state.
    @raise Failure naming the first disagreeing state. *)

val conv_stationary : delta:int -> Nakamoto_core.Params.t -> unit
(** Asserts the four derivations of the convergence-state stationary
    probability against each other ({!Nakamoto_core.Conv_chain.stationary_cross_check}).
    @raise Failure naming the disagreeing pair. *)

val suffix_stationary_sparse : delta:int -> alpha:float -> unit
(** The large-Δ three-way: Eq. 37's closed form against GTH censoring
    and sparse power iteration on the band-aware CSR chain — never
    materializing the dense matrix, so Δ in the thousands is testable.
    @raise Failure naming the first disagreeing state. *)

val conv_stationary_sparse : delta:int -> Nakamoto_core.Params.t -> unit
(** {!conv_stationary} through the sparse substrate: Eqs. 44 and 40
    against {!Nakamoto_core.Conv_chain.stationary_cross_check_sparse}'s
    censoring (with power fallback) and power legs.
    @raise Failure naming the disagreeing pair. *)
