(** Adversarial strategies (capability ② of the model).

    The adversary controls [nu * n] miners whose [q] sequential oracle
    queries per round yield [binom(nu*n, p)] blocks; it sees every honest
    block the moment it is broadcast (it routes all messages) and chooses
    what to mine on and what to release to whom, with per-recipient delays
    up to [Delta] (enforced by {!Nakamoto_net.Network}). *)

type audience =
  | All_honest
      (** every honest miner — a broadcast in all but name, which the
          aggregate executor routes through the O(1) Δ-ring lane instead
          of one enqueue per recipient *)
  | Only of int list  (** the listed honest miner indices *)

type release = {
  audience : audience;
  delay : int;  (** requested delay; the network clamps to [1, Delta] *)
  blocks : Nakamoto_chain.Block.t list;
}

type strategy =
  | Idle
      (** corrupted miners do nothing — the honest-only baseline *)
  | Private_chain of { reorg_target : int }
      (** The PSS Remark 8.5 attack: mine privately on a withheld fork;
          once the private chain both exceeds the public chain and is
          [reorg_target] blocks past the fork point, release it to
          everyone, unwinding at least [reorg_target] public blocks.  If
          the public chain overtakes the private one the adversary adopts
          the public tip and forks afresh. *)
  | Balance of { group_boundary : int }
      (** Split-world attack: honest miners [0 .. group_boundary-1] form
          group A, the rest group B (the matching cross-group delay policy
          comes from {!delay_policy_for}).  The adversary always mines on
          the shorter group-chain and releases instantly to that group
          only, keeping the two halves in disagreement. *)
  | Selfish_mining
      (** The Eyal–Sirer block-withholding strategy (gamma = 0: our
          deterministic tie-break prefers honest blocks, so the selfish
          miner loses every tie).  Mine privately on a withheld branch;
          when the public chain catches up to one behind, publish the
          whole branch to orphan the honest work; when it ties, race;
          when it passes, abandon and re-fork.  Degrades chain quality
          below the honest fraction once [nu] is large enough — the
          classic revenue curve reproduced by the bench's EXT2 section. *)

type t

val check_fit : strategy -> honest_count:int -> unit
(** [check_fit strategy ~honest_count] checks that [strategy] can run
    against [honest_count] honest miners; [Config.validate] and
    {!create} both apply it.
    @raise Invalid_argument on a [reorg_target < 1], or a
    [group_boundary] outside [1, honest_count - 1]. *)

val create : strategy:strategy -> honest_count:int -> t
(** @raise Invalid_argument if [honest_count <= 0] or {!check_fit}
    fails. *)

val strategy : t -> strategy

val observe : t -> Nakamoto_chain.Block.t list -> unit
(** [observe t blocks] feeds honest blocks to the adversary's omniscient
    view the round they are mined. *)

val act :
  t -> round:int -> successes:int -> release list
(** [act t ~round ~successes] lets the adversary spend [successes] block
    creations (its binomial draw for the round) and returns the releases
    it wants delivered.  @raise Invalid_argument on negative inputs. *)

val advance_empty : t -> round:int -> rounds:int -> unit
(** [advance_empty t ~round ~rounds] fast-forwards the adversary across
    [rounds] consecutive rounds (the first being [round]) in which it
    mines nothing and observes nothing — the skip executor's bulk
    advance.  Equivalent to [rounds] calls of [act ~successes:0]: every
    strategy is event-driven, so those calls are idempotent no-ops past
    the first.  The single head call is executed for real, which also
    verifies the quiescence contract at run time.
    @raise Invalid_argument on negative inputs.
    @raise Failure if the strategy tries to release during the span
    (impossible for the shipped strategies; a guard for future
    time-dependent ones). *)

val delay_policy_for :
  strategy -> delta:int -> honest_count:int -> Nakamoto_net.Network.delay_policy
(** [delay_policy_for strategy ~delta ~honest_count] is the delay rule the
    adversary imposes on honest broadcasts: maximal delay under
    [Private_chain] (starve propagation), cross-group-[Delta] /
    in-group-immediate under [Balance], immediate under [Idle]. *)

val view : t -> Nakamoto_chain.Block_tree.t
(** The adversary's omniscient block tree (every block ever mined —
    withheld ones included). *)

val private_tip : t -> Nakamoto_chain.Block.t
(** Current private mining tip (equals the best public tip under [Idle]). *)

val blocks_mined : t -> int
val reorgs_caused : t -> int
(** Number of [Private_chain] releases executed so far. *)
