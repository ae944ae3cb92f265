(** Theorem 2 and Remark 1: the neat bound with its finite-Δ regimes.

    Theorem 2 (Ineq. 11) is the two-branch condition on [c]; under the
    [nu]-range condition Ineq. (12) (parameterized by [delta1, delta2]
    with [delta1 + delta2 < 1]) it collapses to Ineq. (13):
    [c >= 2mu/ln(mu/nu) * (1+eps2) * (1 + Δ^(delta1-1)) / (1 - Δ^(delta1+delta2-1))],
    i.e. "just slightly greater than [2mu/ln(mu/nu)]".  Remark 1
    instantiates two [(delta1, delta2)] pairs at [Δ = 1e13]. *)

val condition_holds : eps1:float -> eps2:float -> Params.t -> bool
(** Ineq. (11) at the given constants.
    @raise Invalid_argument unless [0 < eps1 < 1], [eps2 > 0], [nu > 0]. *)

type regime = {
  delta1 : float;
  delta2 : float;
  nu_lo : float;  (** [1 / (1 + exp (Delta^delta1))] (Ineq. 12, left) *)
  log_nu_lo : float;  (** natural log of [nu_lo] (it can underflow) *)
  nu_hi : float;  (** [1 / (1 + exp (1 / (Delta^delta2 - 1)))] *)
  half_minus_nu_hi : float;  (** distance of [nu_hi] below 1/2 *)
  inflation : float;
      (** the factor [(1 + Δ^(delta1-1)) / (1 - Δ^(delta1+delta2-1))]
          multiplying [2mu/ln(mu/nu) * (1+eps2)] in Ineq. (13) *)
}

val regime : delta:float -> delta1:float -> delta2:float -> regime
(** [regime ~delta ~delta1 ~delta2] computes the [nu] range and inflation
    factor of Ineqs. (12)–(13).
    @raise Invalid_argument unless [delta >= 2], [delta1, delta2 > 0], and
    [delta1 +. delta2 < 1.]. *)

val remark1_rows : unit -> regime list
(** The two regimes of Remark 1 at the paper's [Delta = 1e13]:
    [(1/6, 1/2)] and [(1/8, 2/3)].  Expected values (paper):
    [nu] ranges [~1e-63 .. 0.5 - 1e-7] and [~1e-18 .. 0.5 - 1e-9];
    inflations [~1 + 5e-5] and [~1 + 2e-3]. *)

val remark1_table : title:string -> Nakamoto_numerics.Table.t
(** {!remark1_rows} as a table: [delta1], [delta2], [log10] of the lower
    [nu] end, [1/2 -] the upper end and the inflation [- 1]. *)

val neat_bound_with_inflation : nu:float -> eps2:float -> regime -> float
(** RHS of Ineq. (13): [2mu/ln(mu/nu) * (1+eps2) * inflation].
    @raise Invalid_argument unless [0 < nu < 1/2] and [eps2 > 0]. *)

val consistency_c_threshold : nu:float -> float
(** The headline result: the asymptotic threshold [2mu/ln(mu/nu)]
    (equals {!Bounds.neat_c_min}). *)
