(** Protocol parameters (Table I) and the derived per-round probabilities.

    The analysis treats [n] and [Delta] as real-valued (exponents like
    [(1-p)^(mu*n)] are evaluated for fractional [mu*n]), so this module
    stores floats; the simulator's integer configuration converts via
    {!of_sim_config}.  All derived quantities are exposed in both the
    linear and the log domain — at the paper's own operating point
    ([Delta = 1e13]) the linear domain [abar ** (2 delta)] is fine (it is
    [exp(-2 mu / c)]), but intermediate quantities in the lemma chain are
    not, so the log forms are primary. *)

type t = private {
  n : float;  (** number of miners, [>= 4] *)
  delta : float;  (** maximum message delay, [>= 1] *)
  p : float;  (** proof-of-work hardness, in (0, 1) *)
  nu : float;  (** adversarial fraction, in [0, 1/2) *)
}

val make : n:float -> delta:float -> p:float -> nu:float -> (t, string) result
(** [Error] names the first constraint of Eqs. (1)–(3) that fails
    ([nu = 0.] is tolerated for baselines; theorem-level functions that
    require [nu > 0] check separately). *)

val make_of_c : n:float -> delta:float -> nu:float -> c:float -> (t, string) result
(** [make_of_c ~n ~delta ~nu ~c] sets [p = 1 / (c n delta)]; [Error]
    unless [c > 0.] and the implied [p] lies in (0, 1). *)

val create : n:float -> delta:float -> p:float -> nu:float -> t
(** {!make}, raising.  @raise Invalid_argument with [make]'s message. *)

val of_c : n:float -> delta:float -> nu:float -> c:float -> t
(** {!make_of_c}, raising.  @raise Invalid_argument with its message. *)

val of_sim_config : Nakamoto_sim.Config.t -> t
(** Analysis-side view of a simulator configuration (uses the realized
    integer miner split, so [mu t] matches the simulation exactly). *)

val mu : t -> float
(** [mu t = 1. -. nu t] (Eq. 1). *)

val c : t -> float
(** [c t = 1. /. (p *. n *. delta)]. *)

val log_ratio : t -> float
(** [log_ratio t = log (mu /. nu)] — the ubiquitous [L] of the lemma
    chain.  @raise Invalid_argument when [nu = 0.]. *)

val alpha : t -> float
(** Probability some honest miner mines in a round (Eq. 7). *)

val abar : t -> float
(** Probability no honest miner mines in a round (Eq. 8). *)

val log_abar : t -> float
(** [log (abar t)], computed as [mu * n * log1p (-p)]. *)

val alpha1 : t -> float
(** Probability exactly one honest miner mines in a round (Eq. 9). *)

val log_alpha1 : t -> float
(** [log (alpha1 t)] = [log (p mu n) + (mu n - 1) log1p (-p)]. *)

val adversary_rate : t -> float
(** Expected adversarial blocks per round, [p *. nu *. n] (Eq. 27).
    Where [p *. nu] is below [Float.min_float] (nu below ~7e-290 at
    Internet-scale p) it is [p *. n *. nu] instead, which keeps the bits
    that [p *. nu] would round away; every other [nu] gets the
    left-to-right product. *)

val log_adversary_rate : t -> float
(** [log (adversary_rate t)]; [neg_infinity] when [nu = 0.].  Where
    [p *. nu] is below [Float.min_float] it is [log p + log nu + log n]
    instead, so it is accurate and finite for every [nu > 0]. *)

val honest_rate : t -> float
(** Expected honest blocks per round, [p *. mu *. n]. *)

val pp : Format.formatter -> t -> unit

val bitcoin_like : t
(** A parameter point shaped like Bitcoin's (block every ~600 s, ~10 s
    propagation: [c = 60]), with [n = 1e5] miners and [nu = 0.25]. *)

val figure1_point : nu:float -> c:float -> t
(** The paper's Figure 1 operating point: [n = 1e5], [delta = 1e13].
    @raise Invalid_argument per {!of_c}. *)
