(** The round-by-round protocol execution of Section III.

    Each round, in order: (1) every honest miner drains its inbox and
    adopts the longest known chain; (2) every honest miner makes its single
    parallel [H]-query and broadcasts on success (the adversary's routing
    chooses per-recipient delays, capped at [Delta]); (3) the adversary,
    who saw everything instantly, spends its [binom(nu*n, p)] sequential
    queries and releases whatever its strategy dictates.  Per-miner best
    tips are snapshotted on a configurable cadence for the consistency
    audit in {!Metrics}.

    One event-stepped executor runs all three mining modes
    (see {!Config.mining_mode}).  Every honest miner whose view equals
    the shared broadcast stream's is one "crowd" view; a miner gets a
    view of its own (an overlay of the crowd's tree) only while it
    differs, and under a recipient-dependent delay policy every miner
    does.  The modes differ only in their draws:

    - [Exact] makes one [H]-query per honest miner on its own view's tip
      and [nu n] sequential adversary queries, every round — O(n) per
      round, the default, and the mode behind the committed campaign
      goldens.
    - [Aggregate] draws per-round success {e counts} from the exact
      binomial law and selects winners by partial Fisher–Yates —
      O(blocks mined + messages due) per round.  Distribution-identical
      to [Exact] (same law for every statistic in {!result}), not
      bit-identical.
    - [Skip] is Aggregate that never iterates an empty round: the gap to
      the next block-bearing round is sampled from
      Geometric(1 - (1-p)^(mu n + nu n)) jointly with the conditional
      success counts, the Δ-ring / adversary / convergence pattern are
      fast-forwarded across the span in O(1), and only rounds where
      blocks appear or deliveries fall due are simulated — O(events)
      total.  Distribution-identical to [Aggregate]; [on_round] fires
      only for simulated rounds (compare [processed_rounds] with
      [config.rounds]). *)

type snapshot = {
  round : int;
  tips : Nakamoto_chain.Block.t array;
      (** indexed by honest miner.  Consecutive snapshots may share one
          physical array (reused when no round was simulated in
          between), so treat it as read-only. *)
}

type result = {
  config : Config.t;
  snapshots : snapshot list;  (** chronological *)
  god_view : Nakamoto_chain.Block_tree.t;  (** every block ever mined *)
  final_tips : Nakamoto_chain.Block.t array;
  convergence_opportunities : int;
  adversary_blocks : int;
  honest_blocks : int;
  h_rounds : int;
  h1_rounds : int;
  max_reorg_depth : int;
      (** deepest rollback any honest miner ever performed when switching
          tips — a direct witness against [T]-consistency for
          [T <= max_reorg_depth] *)
  adversary_releases : int;
  messages_sent : int;
  orphans_remaining : int;  (** undeliverable blocks at the end (should be 0) *)
  processed_rounds : int;
      (** rounds the executor actually simulated: equals [config.rounds]
          for [Exact] and [Aggregate]; for [Skip] it is the event count —
          block-bearing rounds plus delivery-due rounds — and the skipped
          remainder were provably all-empty *)
}

type round_report = {
  round_number : int;
  honest_mined : int;  (** honest blocks this round *)
  adversary_successes : int;  (** adversary's binomial draw this round *)
  releases_issued : int;  (** release messages the adversary sent *)
  best_height : int;  (** tallest honest chain after the round *)
  reorg_depth : int;  (** deepest rollback performed this round *)
}

val run :
  ?on_round:(round_report -> unit) ->
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  Config.t ->
  result
(** [run config] executes the protocol, then quiesces: [delta] further
    delivery-only rounds flush every in-flight message, so
    [orphans_remaining] is [0] under any delay policy and [final_tips]
    describe a settled network.  [on_round], if given, is called once per
    mining round (not the quiescence rounds) after the adversary has
    acted — the hook behind {!Trace.capture}.  Under [Skip] mining it
    fires only for simulated rounds; every unsimulated round had zero
    honest and adversarial successes, zero releases and no deliveries.

    [telemetry], if given, registers the executor's instruments
    ([sim_*] counters, histograms and phase spans) in the registry and
    feeds them as the run progresses.  The simulation itself is
    oblivious to the registry: the RNG stream, every statistic in
    {!result}, and the {!round_report} sequence are bit-identical with
    and without it.  When absent, the hot path performs no clock reads
    and no allocation on its behalf.
    @raise Invalid_argument when {!Config.validate} rejects [config]. *)
