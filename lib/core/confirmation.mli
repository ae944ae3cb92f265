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
    with [lambda = z * ratio].  It is evaluated as the equal positive
    sum [P(Pois(lambda) > z) + r^z P(Pois(z) <= z)] with
    [r = ratio e^(1 - ratio)], each term a Poisson sum started at its
    largest term and run until it stops changing, so nothing cancels:
    O(sqrt z + 1 / (1 - ratio)) multiply-divides after one [exp].  The
    tests hold it within [1e-10] relative of a 400-digit evaluation of
    the mixture at 196 points up to z = 10_000 (the largest error
    measured is [1.1e-11]).
    @raise Invalid_argument unless [0 < ratio] and [confirmations >= 1];
    returns [1.] for [ratio >= 1]. *)

val default_depth_limit : int
(** The deepest confirmation count the depth search considers by default
    ([10_000]): {!confirmations_for}'s default [limit], and the limit
    {!assess_checked} reports in {!Depth_limited}. *)

val min_epsilon : float
(** The smallest risk target the depth search accepts ([1e-9]).  The
    search's answer is the {e smallest} depth meeting the target only
    where the float double-spend probability is nonincreasing in [z],
    and the tests pin that at ratios up to 0.97 for every z up to
    {!default_depth_limit} while the probability is at least this
    value.  The float is within [1e-10] relative of the true risk
    (measured: [1.1e-11] at worst), against a relative fall per depth
    of about [(1 - ratio)^2 / 2] (5e-4 at ratio 0.97). *)

val confirmations_for :
  ?limit:int -> ratio:float -> epsilon:float -> unit -> int option
(** [confirmations_for ~ratio ~epsilon ()] is [Some z] for the smallest
    [z >= 1] with [nakamoto_double_spend ~ratio ~confirmations:z <=
    epsilon], or [None] when no [z <= limit] (default
    {!default_depth_limit}) suffices — a well-typed "the ratio is too
    close to 1 to settle" answer, not an exception, so sweeps over a
    parameter grid can report the unsettleable cells instead of dying on
    the first one.

    The search starts at the closed-form crossing {!first_read}.  If
    that depth fails [epsilon] it gallops up (first + 1, first + 3,
    first + 7, ..., capped at [limit]) until a depth meets it, and
    answers [None] if [limit] does not.  If it meets [epsilon], a secant
    step on the geometric decay predicts the crossing and reads the depth
    just below it, then the search gallops down while depths meet and up
    while they fail.  Either way it bisects what is left.  Every read
    after the first lies inside the bracket of the deepest failing and
    the shallowest meeting depth read so far, so every depth read below
    the answer fails [epsilon] and every depth read at or above it meets
    it.  At the 1000 assess-settle ratios in [[0.05, 0.95]] and
    [epsilon = 1e-3] that is two reads of {!nakamoto_double_spend} for
    most ratios and at most three.

    The answer always meets [epsilon] right after a depth that does not
    (or is 1).  That it is the {e smallest} such depth relies on the
    double-spend probability being nonincreasing in [z]: it is
    mathematically, and the tests pin the float evaluation nonincreasing
    on a grid of ratios up to 0.97, for every z up to
    {!default_depth_limit} while it is at least {!min_epsilon}.  They
    pin the 1e-9 depth at ratio [0x1.daf6191c5d166p-1] to 7326, where
    summing the [1 - sum] form directly cancels and answers 7393.  They
    pin the search equal to a linear scan for [epsilon] in [[1e-9, 0.5]]
    and limits up to 2000, and its answers first crossings at 1000
    ratios in [[0.05, 0.95]] at [epsilon = 1e-3].
    @raise Invalid_argument unless [0 < ratio < 1],
    [min_epsilon <= epsilon < 1] and [limit >= 1]. *)

val first_read : ?limit:int -> ratio:float -> epsilon:float -> unit -> int
(** [first_read ~ratio ~epsilon ()] is the first depth
    {!confirmations_for} reads, in [[1, limit]]: the ceiling of four
    fixed-point steps, from z = 1, of
    [z = max 1 ((log epsilon -. log f) /. log r)] with
    [log r = log ratio +. (1. -. ratio)] and
    [f = 0.5 +. ((ratio /. (1. -. ratio)) /. ((2. *. Float.pi *. z) ** 0.5))],
    the crossing of the approximation [r^z f] of the double-spend
    probability.  {!Nakamoto_surface.Cert} encloses exactly this
    expression. *)

val search_reads :
  ?limit:int -> ratio:float -> epsilon:float -> unit -> int list
(** The depths {!confirmations_for} reads, in order, with the same
    arguments.
    @raise Invalid_argument as {!confirmations_for} does. *)

val deepest_read : ?limit:int -> first:int -> int -> int
(** [deepest_read ~first depth] bounds the depths the search reads
    when its first read is [first] and every depth at or above [depth]
    meets [epsilon] while every depth below it fails: [first] when
    [first >= depth] (every later read lies below it), else
    [2 depth - first - 1] (galloping up from [first] overshoots [depth]
    by less than it climbed), and never past [limit] (default
    {!default_depth_limit}).  So if [nakamoto_double_spend] fails
    [epsilon] at every depth below [depth] and meets it at every depth
    from [depth] to this bound, the search answers [Some depth] whatever
    the probability does elsewhere: that is how
    {!Nakamoto_surface.Cert} certifies a depth.  The bound is
    nonincreasing in [first] below [depth] and nondecreasing from it, so
    over a range of first reads it is largest at an end. *)

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
