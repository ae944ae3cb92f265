(** Streaming per-cell statistics for Monte Carlo campaigns.

    An aggregate consumes one {!observation} per completed trial and
    retains only O(1) state: integer tallies, Welford summaries (via
    {!Nakamoto_prob.Stats.Summary}) for the per-trial chain metrics, and
    a saturating max-reorg-depth histogram.  Aggregates merge exactly
    (integers) or in the standard parallel-Welford way (floats); the
    campaign engine always merges shard aggregates in plan order, so the
    merged floats are bit-identical across worker counts. *)

type observation = {
  rounds : int;
  convergence_opportunities : int;
  adversary_blocks : int;
  honest_blocks : int;
  h_rounds : int;
  h1_rounds : int;
  full : bool;
      (** whether the trial ran the full protocol: only then are the
          audit verdict, reorg depth, growth and quality meaningful *)
  violated : bool;  (** the Definition-1 audit found a violation *)
  max_reorg_depth : int;
  growth_rate : float;
  chain_quality : float;
}

val of_execution : Nakamoto_sim.Execution.result -> observation
(** Audits the run (consistency at the configured truncation, growth,
    quality) and flattens it to an observation. *)

val of_state_run : Nakamoto_sim.State_process.run -> observation
(** State-process trials carry only the counting statistics. *)

type t
(** Mutable accumulator. *)

val hist_depths : int
(** Reorg histogram resolution: depths [0 .. hist_depths - 2] get their
    own bin, anything deeper saturates into the last. *)

val create : unit -> t
val observe : t -> observation -> unit

val merge : t -> t -> t
(** [merge a b] combines as if [b]'s trials streamed in after [a]'s;
    inputs are unchanged. *)

val trials : t -> int
val total_rounds : t -> int
val audited_trials : t -> int
val violations : t -> int
val convergence_opportunities : t -> int
val adversary_blocks : t -> int
val honest_blocks : t -> int

val violation_rate : t -> float
(** Violating fraction of audited trials; [nan] when none were audited. *)

val wilson_interval : t -> (float * float) option
(** 95% Wilson score interval for the violation rate; [None] when no
    trials were audited. *)

val convergence_rate : t -> float
(** Convergence opportunities per round, pooled over all trials. *)

val adversary_rate : t -> float
val h_rate : t -> float
val h1_rate : t -> float
val max_reorg_depth : t -> int
val reorg_histogram : t -> int array
(** A copy; index = depth, last bin saturating, one entry per audited
    trial. *)

val growth_summary : t -> Nakamoto_prob.Stats.Summary.t
val quality_summary : t -> Nakamoto_prob.Stats.Summary.t

(** Exact state, for the journal. *)
type snapshot = {
  s_trials : int;
  s_total_rounds : int;
  s_audited_trials : int;
  s_violations : int;
  s_convergence_opportunities : int;
  s_adversary_blocks : int;
  s_honest_blocks : int;
  s_h_rounds : int;
  s_h1_rounds : int;
  s_max_reorg_depth : int;
  s_reorg_hist : int array;
  s_growth : Nakamoto_prob.Stats.Summary.raw;
  s_quality : Nakamoto_prob.Stats.Summary.raw;
  s_reorg : Nakamoto_prob.Stats.Summary.raw;
}

val snapshot : t -> snapshot
val of_snapshot : snapshot -> t
(** Round-trips bit-identically with {!snapshot}.
    @raise Invalid_argument when the histogram length is not
    {!hist_depths} or a count is negative. *)
