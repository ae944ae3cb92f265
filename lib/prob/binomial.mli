(** The binomial distribution [binom(n, p)].

    Per round, the number of blocks mined by [m] miners each succeeding
    independently with probability [p] is binomial — both the honest side
    ([binom(mu*n, p)], Eqs. 7–9 of the paper) and the adversary
    ([binom(nu*n, p)], Eq. 27).  Everything here is exact (no normal
    approximation); log-domain variants cover the extreme parameter ranges
    of the paper's Figure 1. *)

type t = private { trials : int; p : float }

val create : trials:int -> p:float -> t
(** [create ~trials ~p] validates [trials >= 0] and [p] in [[0, 1]].
    @raise Invalid_argument otherwise. *)

val mean : t -> float
(** [mean d] is [trials *. p]. *)

val variance : t -> float
(** [variance d] is [trials *. p *. (1 -. p)]. *)

val pmf : t -> int -> float
(** [pmf d k] is [P(X = k)], taken as [exp] of its log; [0.] outside
    [[0, trials]]. *)

val cdf : t -> int -> float
(** [cdf d k] is [P(X <= k)] by summation (clamped to [[0, 1]]): one
    [log_pmf] evaluation at the mode, then the pmf ratio recurrence at
    O(1) per term, stopping early once a tail underflows. *)

val survival : t -> int -> float
(** [survival d k] is [P(X > k)], summed over the upper tail the same way
    (never via [1 - cdf], preserving relative accuracy when tiny). *)

val log_prob_zero : t -> float
(** [log_prob_zero d] is [log P(X = 0) = trials * log1p (-p)] — the paper's
    [log abar] when applied to the honest miners. *)

val prob_zero : t -> float
(** [prob_zero d] is [P(X = 0)] — the paper's [abar], Eq. (8). *)

val prob_positive : t -> float
(** [prob_positive d] is [P(X > 0) = 1 - prob_zero d] — the paper's
    [alpha], Eq. (7), computed as [-expm1 (log_prob_zero d)]. *)

val prob_one : t -> float
(** [prob_one d] is [P(X = 1)] — the paper's [alpha1], Eq. (9), taken as
    [exp (log (p * trials) + (trials - 1) * log1p (-p))]. *)

val sample : Rng.t -> t -> int
(** [sample rng d] draws from the distribution in O(1) expected time for
    every parameter regime — it never walks the [trials] Bernoullis:

    - small mean (the simulator's regime, [mean <= 64] or
      [trials <= 256]): sequential inversion from [k = 0] (BINV), expected
      [O(1 + mean)] work, bit-compatible with every earlier release;
    - large mean: the exact BTPE accept/reject envelope of
      Kachitvichyanukul–Schmeiser (1988), O(1) expected draws independent
      of [trials];
    - [p > 1/2]: sampled as [trials - sample (trials, 1 - p)], so both
      paths always walk the small-probability side (this also fixes the
      old underflow of inversion's starting mass at [p] near 1).

    Every path is exact (no normal approximation). *)

val sample_positive : Rng.t -> t -> int
(** [sample_positive rng d] draws from the zero-truncated law
    [X | X >= 1] in O(1) expected time even when [P(X = 0)] is close to 1
    — the regime where naive rejection would cost [1 / P(X >= 1)] draws
    per sample.  When zeros dominate it runs sequential inversion from
    [k = 1] over the truncated masses; otherwise it rejection-samples on
    {!sample} (< 2 expected draws).  The skip executor uses this for the
    success count of a block-bearing round.
    @raise Invalid_argument if [trials = 0] or [p = 0] (no positive
    mass). *)
