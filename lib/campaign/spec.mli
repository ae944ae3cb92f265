(** Parameter-grid specification for a Monte Carlo campaign.

    A spec is the cross product of four parameter axes — the per-query
    success probability [p], the miner count [n], the delay bound [Delta]
    and the adversarial fraction [nu] — times a trial count per cell.
    Cells are enumerated in a fixed row-major order ([p] outermost, [nu]
    innermost) so that cell indices, and therefore the per-trial RNG
    paths derived from them, are stable properties of the spec alone. *)

type mode =
  | Full_protocol
      (** each trial is a {!Nakamoto_sim.Execution.run}: real miners,
          message layer, adversary strategy and consistency audit *)
  | State_process
      (** each trial is a {!Nakamoto_sim.State_process.run}: the bare
          binomial mining law, orders of magnitude faster, no
          consistency audit *)

type t = {
  ps : float list;  (** per-query success probabilities, each in (0, 1) *)
  ns : int list;  (** miner counts, each >= 4 *)
  deltas : int list;  (** delay bounds, each >= 1 *)
  nus : float list;  (** adversarial fractions, each in [0, 1/2) *)
  trials_per_cell : int;  (** independent trials per grid cell, >= 1 *)
  rounds : int;  (** rounds simulated per trial, >= 1 *)
  mode : mode;
  strategy : Nakamoto_sim.Adversary.strategy;
      (** adversary for [Full_protocol] trials; ignored by
          [State_process] *)
  mining_mode : Nakamoto_sim.Config.mining_mode;
      (** executor for [Full_protocol] trials ([Exact] by default;
          [Aggregate]/[Skip] select the fast paths and exclude the
          balance strategy); ignored by [State_process] *)
  truncate : int;  (** the [T] of the consistency audit *)
  seed : int64;  (** campaign master seed *)
  shard_size : int;  (** trials per work-queue shard, >= 1 *)
}

type cell = {
  index : int;  (** position in {!cells}; the RNG path component *)
  p : float;
  n : int;
  delta : int;
  nu : float;
}

val default : t
(** A small full-protocol demonstration grid (one [p], one [n], one
    [Delta], three [nu] regimes). *)

val validate : t -> unit
(** [validate t] checks the spec's own rules (non-empty axes, [p < 1],
    [trials_per_cell], [rounds] and [shard_size] at least 1), then every
    cell's configuration ({!config_of_cell} at trial 0) with
    {!Nakamoto_sim.Config.validate}: the ranges of [n], [nu], [p],
    [delta] and [truncate], and the strategy's fit to the cell's honest
    count.  A [State_process] spec runs no strategy, so its cells are
    checked without one.
    @raise Invalid_argument naming the first rule broken (and its cell). *)

val cells : t -> cell array
(** [cells t] enumerates the grid in the canonical order. *)

val cell_count : t -> int

val trial_count : t -> int
(** [cell_count * trials_per_cell]. *)

val c_of_cell : cell -> float
(** The governing ratio [c = 1/(p n Delta)] at this cell. *)

val config_of_cell : t -> cell -> trial:int -> Nakamoto_sim.Config.t
(** [config_of_cell t cell ~trial] is the full-protocol configuration for
    one trial, with its seed derived via
    [Rng.seed_of_path ~seed:t.seed [cell.index; trial]]. *)

val state_config_of_cell : cell -> Nakamoto_sim.State_process.config

val trial_rng : t -> cell -> trial:int -> Nakamoto_prob.Rng.t
(** The deterministic stream for a [State_process] trial, addressed by
    [(seed, cell_index, trial_index)]. *)

val to_json : t -> string
(** The canonical serialization: one JSON object, no whitespace, fixed
    key order, floats rendered round-trip precisely ({!Json.float_str}),
    64-bit seeds as decimal strings; [mining_mode] is emitted only when
    it differs from the historical default [Exact], so pre-existing
    exact-mode specs keep their bytes and fingerprints.  Equal specs always produce equal
    bytes — the journal header, the wire protocol's campaign submission
    and {!fingerprint} all consume exactly this string, so there is one
    serialization to audit rather than three ad-hoc ones. *)

val of_json : string -> (t, string) result
(** Inverse of {!to_json} (also accepts semantically equal documents
    with different whitespace).  [Error] carries a one-line reason:
    malformed JSON, a missing field, an unknown [mode]/[strategy] kind,
    or an unsupported codec version. *)

val fingerprint : t -> int64
(** A SplitMix64 hash-chain over the bytes of {!to_json} — the spec's
    identity {e is} its canonical serialization.  Two specs with the
    same fingerprint run identical campaigns; the journal stores it so
    that a resume against a different spec is rejected rather than
    silently mixing incompatible results. *)

val describe : t -> string
(** One-line human summary — grid size, trials, rounds, seed and
    {!fingerprint} — used in resume/repair log messages so an operator
    can tell at a glance which campaign a journal belongs to. *)
