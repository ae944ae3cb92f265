(** Settlement analysis: how many confirmations until a payment is safe?

    A practitioner-facing extension of the paper's machinery.  The race
    between the public chain and a private attacker is a biased random
    walk on the attacker's deficit; with per-round effective rates
    [honest_rate] (chain-extending honest progress) and [adversary_rate]
    (Eq. 27's [p nu n]), the classic gambler's-ruin analysis gives the
    overtake probability, and Nakamoto's Poisson-mixture formula gives
    the double-spend probability after [z] confirmations.

    For the [Delta]-delay model we use the paper's own conservative
    accounting: only convergence opportunities ([abar^(2Delta) alpha1]
    per round, Eq. 44) are counted as guaranteed honest progress, so the
    resulting confirmation counts are safe even against the strongest
    delay adversary.  All three computations (closed form, absorbing
    Markov chain, simulation) are cross-checked in the test suite. *)

val overtake_probability : honest_rate:float -> adversary_rate:float ->
  deficit:int -> float
(** [overtake_probability ~honest_rate ~adversary_rate ~deficit] is the
    probability that a walk gaining +1 with intensity [adversary_rate]
    and -1 with intensity [honest_rate] ever reaches +1 from [-deficit]:
    [min 1 ((adversary_rate / honest_rate) ^ (deficit + 1))].
    A [deficit] of 0 means the attacker is even and needs one net block.
    @raise Invalid_argument unless both rates are positive and
    [deficit >= 0]. *)

val overtake_probability_bounded :
  honest_rate:float -> adversary_rate:float -> deficit:int ->
  give_up_behind:int -> float
(** Same race, but the attacker abandons once it falls [give_up_behind]
    blocks behind — the finite version, computed exactly with
    {!Nakamoto_markov.Absorbing} on the lead walk.  Converges to
    {!overtake_probability} as [give_up_behind] grows.
    @raise Invalid_argument if [give_up_behind <= deficit]. *)

val nakamoto_double_spend : ratio:float -> confirmations:int -> float
(** [nakamoto_double_spend ~ratio ~confirmations] is the attack-success
    probability of Nakamoto's whitepaper (section 11) for an attacker
    with rate ratio [ratio = q/p < 1] once the merchant has seen
    [confirmations] blocks: the Poisson mixture
    [1 - sum_{k=0}^{z} e^(-lambda) lambda^k / k! (1 - ratio^(z-k))]
    with [lambda = z * ratio].
    @raise Invalid_argument unless [0 < ratio] and [confirmations >= 1];
    returns [1.] for [ratio >= 1]. *)

val default_depth_limit : int
(** The deepest confirmation count the depth search considers by default
    ([10_000]): {!confirmations_for}'s default [limit], and the limit
    {!assess_checked} reports in {!Depth_limited}. *)

val min_epsilon : float
(** The smallest risk target the depth search accepts ([1e-9]).  Below
    it the float double-spend probability sits near its rounding floor
    (around [1e-11] by z = 2000, [2e-10] by z = 10_000) and is no longer
    nonincreasing in [z], so a galloping search could stop at a later
    crossing than the first one, or find none at all. *)

val confirmations_for :
  ?limit:int -> ratio:float -> epsilon:float -> unit -> int option
(** [confirmations_for ~ratio ~epsilon ()] is [Some z] for the smallest
    [z >= 1] with [nakamoto_double_spend ~ratio ~confirmations:z <=
    epsilon], or [None] when no [z <= limit] (default
    {!default_depth_limit}) suffices — a well-typed "the ratio is too
    close to 1 to settle" answer, not an exception, so sweeps over a
    parameter grid can report the unsettleable cells instead of dying on
    the first one.

    The search gallops — it evaluates z = 1, 2, 4, ..., the last probe
    capped at [limit], until one meets [epsilon], and answers [None] if
    [limit] does not — then bisects between the last failing probe and
    the first passing one.  That is O(log z) evaluations of the O(z)
    sum, O(z log z) in all.  The answer always meets [epsilon] right
    after a depth that does not (or is 1).  That it is the {e smallest}
    such depth relies on the double-spend probability being
    nonincreasing in [z]: it is mathematically, and the tests pin the
    float evaluation down to {!min_epsilon}.  They pin it
    nonincreasing on a grid of ratios up to 0.95, for z < 2000 while it
    is at least [1e-9] and up to {!default_depth_limit} while it is at
    least [1e-3].  They pin the search equal to a linear scan for
    [epsilon] in [[1e-9, 0.5]] and limits up to 2000, and its answers
    first crossings at 1000 ratios in [[0.05, 0.95]] at
    [epsilon = 1e-3].
    @raise Invalid_argument unless [0 < ratio < 1],
    [min_epsilon <= epsilon < 1] and [limit >= 1]. *)

val search_probes : int -> int list
(** [search_probes depth] lists, in order, the depths {!confirmations_for}
    evaluates at its default limit ({!default_depth_limit}, the one
    {!assess_checked} uses) when its answer is [Some depth].  The search
    reads nothing else, so if [nakamoto_double_spend] meets [epsilon] at
    exactly the listed depths
    that are [>= depth], the search answers [Some depth] whatever the
    probability does elsewhere: that is how {!Nakamoto_surface.Cert}
    certifies a depth.  At most [ceil (log2 depth)] of them exceed
    [depth].
    @raise Invalid_argument unless [1 <= depth <= default_depth_limit]. *)

type assessment = {
  params : Params.t;
  honest_rate : float;  (** convergence opportunities per round (Eq. 44) *)
  adversary_rate : float;  (** [p nu n] (Eq. 27) *)
  rate_ratio : float;
  confirmations : int;
  residual_risk : float;  (** double-spend probability at that depth *)
}

type unavailable =
  | No_adversary  (** [nu = 0.]: nothing to defend against *)
  | Outside_consistency of { rate_ratio : float }
      (** the rate ratio is not < 1: no finite depth is safe *)
  | Depth_limited of { rate_ratio : float; limit : int }
      (** no depth within {!confirmations_for}'s search limit reaches
          [epsilon] — settlement impractical this close to the
          consistency boundary *)
(** Why a confirmation depth could not be produced — the typed version
    of the three [Invalid_argument] cases {!assess} raises, so batch
    consumers (e.g. [assess --stdin-jsonl]) can report the reason per
    line instead of aborting. *)

val unavailable_label : unavailable -> string
(** Stable snake_case tag ("no_adversary" | "outside_consistency" |
    "depth_limited") for structured output and telemetry labels. *)

val assess_checked :
  ?epsilon:float -> Params.t -> (assessment, unavailable) result
(** Like {!assess} but total over valid {!Params.t}: the three failure
    modes come back as [Error] instead of [Invalid_argument].
    @raise Invalid_argument when the depth search runs and [epsilon] is
    not in [[min_epsilon, 1)]. *)

val assess : ?epsilon:float -> Params.t -> assessment
(** [assess params] computes the conservative confirmation depth in the
    Delta-delay model ([epsilon] defaults to [1e-3]).  Requires the
    parameters to sit strictly inside the consistency region
    ([rate_ratio < 1], i.e. Theorem 1's condition with slack).
    @raise Invalid_argument when [nu = 0.] (nothing to defend against),
    the rate ratio is not < 1 (no finite depth is safe), or no depth
    within {!confirmations_for}'s search limit reaches [epsilon] —
    the same cases {!assess_checked} returns as typed [Error]s — and,
    like it, for an [epsilon] outside [[min_epsilon, 1)]. *)

val to_table : assessment list -> Nakamoto_numerics.Table.t
(** Render a sweep of assessments. *)
