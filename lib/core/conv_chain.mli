(** The concatenated chain [C_{F||P}] and the convergence-opportunity rate
    (Section V-A, Eqs. 39–46).

    A state is the pair of (i) the suffix class [F_{t-Δ-1}] and (ii) the
    window of the Δ+1 most recent detailed states [S_{t-Δ} .. S_t].  For
    the convergence-opportunity computation the detailed alphabet can be
    collapsed to three symbols — [N], [H1] (exactly one honest block) and
    [Hm] (two or more) — because the target state only distinguishes
    those.  The closed-form stationary probability of the target state
    [HN^{>=Δ} || H1 N^Δ] is [abar^(2Δ) alpha1] (Eq. 44); the explicit
    chain (tiny Δ) and the product formula (Eq. 40) cross-check it. *)

type detailed = N | H1 | Hm

val detailed_probability : Params.t -> detailed -> float
(** [abar], [alpha1], and [alpha - alpha1] respectively (Eq. 41). *)

val log_convergence_rate : Params.t -> float
(** Eq. (44) in the log domain:
    [2 delta * log abar + log alpha1]. *)

val convergence_rate : Params.t -> float
(** [exp (log_convergence_rate p)] — the stationary probability that a
    round completes a convergence opportunity. *)

val expected_convergence_count : Params.t -> horizon:int -> float
(** Eq. (26): [T * abar^(2 delta) * alpha1].
    @raise Invalid_argument on negative [horizon]. *)

val expected_adversary_blocks : Params.t -> horizon:int -> float
(** Eq. (27): [T * p * nu * n]. *)

type explicit = {
  chain : Nakamoto_markov.Chain.t;
  delta : int;
  convergence_state : int;  (** index of [HN^{>=Δ} || H1 N^Δ] *)
}

val build_explicit : delta:int -> Params.t -> explicit
(** [build_explicit ~delta p] enumerates the full
    [(2Δ+1) * 3^(Δ+1)]-state chain.  Exponential in [delta]; guarded to
    [delta <= 6].
    @raise Invalid_argument if [delta] outside [1, 6] or any detailed
    probability vanishes. *)

val product_stationary : delta:int -> Params.t -> index:int -> float
(** Eq. (40): [pi_{F||P}(f s1 .. s_{Δ+1}) = pi_F(f) * prod_i P(s_i)],
    evaluated for the state numbered [index] in {!build_explicit}'s
    encoding. *)

type cross_check = {
  closed_form : float;  (** Eq. (44): [abar^(2 delta) * alpha1] *)
  product_form : float;  (** Eq. (40) evaluated at the target state *)
  linear_solve : float;  (** explicit chain, direct solve of [pi P = pi] *)
  power_iteration : float;  (** explicit chain, iterated pushforward *)
}

val stationary_cross_check : delta:int -> Params.t -> cross_check
(** [stationary_cross_check ~delta p] computes the stationary probability
    of the convergence-opportunity state [HN^{>=Δ} || H1 N^Δ] four
    independent ways — the differential oracle's construction-vs-theory
    agreement check.  All four must coincide up to solver tolerance.
    @raise Invalid_argument as in {!build_explicit}. *)

val build_sparse : delta:int -> Params.t -> Nakamoto_markov.Sparse.t
(** [build_sparse ~delta p] is {!build_explicit}'s transition matrix
    emitted row by row into CSR form.  Never materializes a dense or
    row-array representation, so the cap rises to [delta <= 8]
    ([(2*8+1) * 3^9 = 334_611] states at 3 entries each).
    @raise Invalid_argument if [delta] outside [1, 8] or any detailed
    probability vanishes. *)

type sparse_cross_check = {
  eq44 : float;  (** Eq. (44): [abar^(2 delta) * alpha1] *)
  eq40 : float;  (** Eq. (40) evaluated at the target state *)
  sparse_stationary : float;
      (** GTH censoring on the CSR chain, power fallback past the fill
          budget *)
  sparse_power : float;  (** sparse power iteration *)
}

val stationary_cross_check_sparse : delta:int -> Params.t -> sparse_cross_check
(** {!stationary_cross_check} with the two solver legs routed through the
    sparse substrate — Eqs. 44 and 40 against {!Nakamoto_markov.Sparse}'s
    censoring and power solvers on the {!build_sparse} matrix.
    @raise Invalid_argument as in {!build_sparse}. *)

val index_of : delta:int -> Suffix_chain.state -> detailed list -> int
(** State encoding: suffix class and window (oldest first; must have
    length [delta + 1]).
    @raise Invalid_argument on length or range errors. *)

val state_of : delta:int -> int -> Suffix_chain.state * detailed list
(** Inverse of {!index_of}. *)
