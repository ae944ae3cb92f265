(** Simulation configuration and derived quantities.

    Ties the protocol parameters of Table I to concrete simulator inputs.
    The adversary controls [floor (nu * n)] of the [n] miners; the paper's
    worst case (the adversary always at its cap, Section III) is the only
    case simulated. *)

(** Every mode runs every delay policy on the same executor body; the
    policy picks the network's lane ({!Nakamoto_net.Network.create}).
    Under a recipient-independent policy ([Immediate], [Fixed],
    [Maximal]) broadcasts ride the shared Δ-ring and the miners whose
    view is the crowd's share its tree, which is where the fast modes'
    O(events) cost comes from.  Under [Uniform_random] or [Per_recipient]
    (e.g. [Balance]'s default) every honest miner keeps its own view
    from round 1 and every message is enqueued per recipient, so each
    broadcast costs O(n) in every mode. *)
type mining_mode =
  | Exact
      (** one H-query per honest miner per round, each on its own view's
          tip, and [nu n] sequential adversary queries — the default *)
  | Aggregate
      (** the paper-scale fast path: per-round block counts are drawn
          from the same binomial laws the queries realize (honest
          winners chosen by partial Fisher–Yates, so the round outcome
          is distribution-identical), and only miners whose view
          currently differs from the crowd's (recent winners and
          direct-send recipients) are materialized, each as an overlay
          of the crowd's tree that folds back into the crowd once its
          view is the crowd's again.  Round cost is O(blocks mined +
          messages due) instead of O(n) *)
  | Skip
      (** the O(events) path on top of [Aggregate]: the executor never
          iterates empty rounds.  It samples the gap to the next
          block-bearing round from Geometric(1 - (1-p)^(honest + adv))
          jointly with the conditional success counts, fast-forwards the
          Δ-ring, the adversary and the convergence pattern across the
          span in O(1), and simulates only rounds where blocks appear or
          deliveries fall due.  Distribution-identical to [Aggregate]
          (not bit-identical: the RNG is consumed per event, not per
          round); [on_round] fires only for simulated rounds *)

type t = {
  n : int;  (** total miners; the paper requires [n >= 4] *)
  nu : float;  (** adversarial fraction; the paper requires [0 <= nu < 1/2] *)
  p : float;  (** per-query success probability *)
  delta : int;  (** maximum message delay, [>= 1] *)
  rounds : int;  (** execution length *)
  seed : int64;  (** master PRNG seed *)
  strategy : Adversary.strategy;
  snapshot_interval : int;  (** record per-miner tips every this many rounds *)
  truncate : int;  (** the [T] used in consistency checks *)
  delay_override : Nakamoto_net.Network.delay_policy option;
      (** force a message-delay policy instead of the strategy's default —
          e.g. [Some Maximal] with an [Idle] adversary isolates the pure
          network-delay effect on chain growth *)
  tie_break : Nakamoto_chain.Block_tree.tie_break;
      (** honest miners' equal-height chain-selection rule;
          [Prefer_honest] realizes the Eyal-Sirer gamma = 0 regime,
          [First_seen] gives a withholding attacker the races its releases
          reach first (gamma > 0) *)
  mining_mode : mining_mode;
      (** executor fast-path selection; [Exact] unless asked otherwise *)
}

val validate : t -> unit
(** [validate t] holds every rule a run needs: the range of each field
    and the fit of the strategy to the honest count
    ({!Adversary.check_fit}: [reorg_target >= 1], [Balance]'s
    [group_boundary] in [1, honest_count - 1]).  [nu = 0.] is allowed
    (pure honest run) even though the paper's theorems assume [nu > 0].
    @raise Invalid_argument on the first rule broken. *)

val delay_policy : t -> Nakamoto_net.Network.delay_policy
(** The policy every executor runs under: [delay_override], else the
    strategy's default. *)

val adversary_count : t -> int
(** [floor (nu * n)]. *)

val honest_count : t -> int
(** [n - adversary_count]. *)

val mu : t -> float
(** Realized honest fraction [honest_count / n] (differs from [1 - nu]
    only by rounding). *)

val c : t -> float
(** [c t = 1 / (p * n * delta)] — the paper's central ratio. *)

val with_c : t -> c:float -> t
(** [with_c t ~c] adjusts [p] so that the configuration has the given [c].
    @raise Invalid_argument if the implied [p] leaves (0, 1]. *)

val state_process_config : t -> State_process.config
(** The matching fast-path configuration. *)

val default : t
(** A small, fast baseline: [n = 40], [nu = 0.25], [delta = 4],
    [c = 2.5], 4000 rounds, idle adversary, seed 42, [Exact] mining. *)
