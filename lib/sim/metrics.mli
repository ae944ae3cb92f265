(** Post-execution audits: consistency (Definition 1), chain growth, chain
    quality.

    The consistency audit is the literal quantifier structure of the
    paper's definition, evaluated over the recorded snapshots: for all
    snapshot rounds [r <= s] and honest players [i, j], all but the last
    [T] blocks of [i]'s chain at [r] must be a prefix of [j]'s chain at
    [s].  Because common ancestors in a tree are totally ordered, "prefix
    of every player's chain at [s]" is equivalent to "prefix of the meet
    of all tips at [s]", which the audit exploits.

    The audits run over each snapshot's distinct tips, each weighted by
    the number of players holding it: players on one tip share every
    answer, so the counts below are exact while the cost falls from
    O(S{^2} n) to O(S{^2} d) for [S] snapshots of [n] tips with [d]
    distinct among them. *)

type consistency_report = {
  truncate : int;  (** the [T] audited *)
  pairs_checked : int;
  violations : int;
  worst_violation_depth : int;
      (** max over violating pairs of how many blocks beyond [T] the
          prefix property failed by; [0] when no violations *)
}

val check_consistency : ?truncate:int -> Execution.result -> consistency_report
(** [check_consistency result] audits the snapshots; [truncate] defaults to
    the configured [result.config.truncate].
    @raise Invalid_argument on negative [truncate]. *)

val max_disagreement : Execution.result -> int
(** [max_disagreement result] is the largest pairwise divergence (in
    blocks) between two honest tips within any single snapshot — the
    "split depth" sustained by the balance attack. *)

type growth_report = {
  final_height : int;  (** height of the lowest honest tip at the end *)
  rounds : int;
  growth_rate : float;  (** final_height / rounds *)
}

val chain_growth : Execution.result -> growth_report
(** Chain growth, measured on the slowest honest miner (the property's
    quantifier is "the chain of (every) honest player grew by..."). *)

val chain_quality : Execution.result -> float
(** [chain_quality result] is the honest fraction of the blocks on the
    first honest miner's final chain (genesis excluded). *)

val agreed_prefix_height : Execution.result -> Execution.snapshot -> int
(** [agreed_prefix_height result snap] is the height of the deepest block
    all honest players agree on in [snap]. *)
