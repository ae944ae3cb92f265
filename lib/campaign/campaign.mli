(** The campaign engine: a parameter grid, executed in parallel,
    aggregated deterministically, journaled for resume.

    Determinism contract: for a fixed spec, the outcome — including the
    journal bytes — is identical for every [jobs] value.  Three
    mechanisms combine to give this: (1) every trial's RNG is derived
    from [(seed, cell_index, trial_index)] alone
    ({!Nakamoto_prob.Rng.of_path}); (2) workers return per-shard
    aggregates that are merged in plan order, never in completion order;
    (3) journal lines are flushed in cell order, a completed
    out-of-order cell waiting for its predecessors.  Killing a campaign
    loses at most the unflushed suffix; rerunning with [resume] skips
    every journaled cell and recomputes only the rest.

    Crash-safety contract: every journal line is fsynced before the
    engine proceeds, so a line the journal claims is durable really is;
    a SIGKILL mid-append leaves at most one torn final line, which
    resume repairs (truncates, with a logged warning) rather than
    rejecting.  Worker domains are supervised: a shard whose worker
    raises or dies is requeued up to [retries] times, and because a
    shard's result depends only on [(seed, cell, trial)], a retried
    shard is bit-identical to a first-attempt one. *)

type cell_result = {
  cell : Spec.cell;
  aggregate : Aggregate.t;
  from_journal : bool;  (** recovered from the journal, not recomputed *)
}

type outcome = {
  spec : Spec.t;
  cells : cell_result array;  (** in cell order, one per grid cell *)
  fresh_trials : int;  (** trials actually executed by this run *)
  resumed_cells : int;  (** cells recovered from the journal *)
  jobs : int;  (** worker domains used *)
  elapsed : float;  (** wall-clock seconds for this run *)
  telemetry : Nakamoto_telemetry.Registry.Snapshot.t option;
      (** present iff [~telemetry] was passed to {!run}: the merged
          campaign-wide snapshot (coordinator + every fresh shard) *)
}

val run :
  ?jobs:int ->
  ?journal_path:string ->
  ?resume:bool ->
  ?retries:int ->
  ?fault:Faultplan.t ->
  ?progress_interval:float ->
  ?progress_out:out_channel ->
  ?log:(string -> unit) ->
  ?telemetry:string ->
  ?telemetry_clock:(unit -> float) ->
  Spec.t ->
  outcome
(** [run spec] executes the campaign.

    [jobs] defaults to {!Worker_pool.default_jobs}.  When
    [journal_path] is given, a header plus one fsynced line per
    completed cell is streamed to it; with [resume] also set and the
    file present, its cells are loaded instead of recomputed — after
    checking that the journal's {!Spec.fingerprint} matches, so a
    resume against an edited spec fails loudly.  A torn final line
    (SIGKILL mid-append) is repaired in place and logged; a journal
    with no usable state (empty, or torn before the header completed)
    is logged and overwritten as if starting fresh.  Without [resume],
    an existing journal at that path is overwritten.

    [retries] (default [2]) bounds how many times a failing shard is
    requeued before the campaign gives up and re-raises; retried shards
    are deterministic, so the outcome is unaffected.  [fault] arms a
    {!Faultplan} for crash-recovery testing.  [progress_interval]
    (seconds, default [0.] = silent) enables the {!Progress} reporter
    on [progress_out] (default [stderr]).  [log] receives one-line
    operational messages — resume summaries, torn-tail repairs, shard
    requeues (default: [stderr] prefixed with ["campaign: "]).

    {b Telemetry.}  [telemetry] names a directory (created if absent)
    that receives [telemetry.prom] (Prometheus text exposition) and
    [telemetry.jsonl] (one event per instrument) when the run
    completes.  Each worker shard records into a private registry —
    per-domain shard timings ([campaign_shard_seconds{domain=...}]),
    queue wait, and the executor's [sim_*] instruments — and the
    coordinator adds journal append/fsync latency plus retry/salvage
    counters; shard snapshots are merged in plan order, so the exported
    snapshot is deterministic for a fixed worker count and clock.
    Resumed cells contribute no telemetry (their work happened in an
    earlier process).  [telemetry_clock] (default [Unix.gettimeofday])
    feeds every span — inject a constant clock for byte-stable golden
    output.  The simulation results are bit-identical with and without
    telemetry.  When enabled, the progress reporter appends a derived
    line: p50/p99 shard time and the busiest domain.

    @raise Invalid_argument on an invalid spec, [jobs < 1],
    [retries < 0], or a fingerprint mismatch.
    @raise Failure on a corrupt journal file (mid-file damage or a
    duplicate header — never a torn tail).
    @raise Faultplan.Injected_crash when an armed crash plan fires. *)

val run_shard :
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  Spec.t ->
  Spec.cell array ->
  Shard.t ->
  Aggregate.t
(** [run_shard spec cells sh] executes one work-queue shard — the trials
    [sh.trial_start .. sh.trial_stop - 1] of cell
    [cells.(sh.cell_index)] — and returns its aggregate.  Pure in
    [(spec.seed, cell, trial)]: this is the unit the in-process worker
    pool and the socket workers of the serve subsystem both execute, so
    a shard computed by a remote process is bit-identical to one
    computed here.  [cells] must be [Spec.cells spec]. *)

(** The plan-order fold shared by {!run} and the serve coordinator: the
    one implementation of the determinism contract above.  It opens the
    journal (fresh, or resumed through {!Journal.fold}), plans the
    shards the journal does not already cover, and lands shard results
    — slot-order merge, then cell-order flush.  With a registry, shard
    telemetry snapshots merge in plan order as their contiguous prefix
    lands, and {!finish} merges the caller's registry with that running
    snapshot; without one, no snapshot is kept.  Retained state is the
    cells' results plus the shards in flight, never one entry per landed
    shard.  Callers own only scheduling: which shard runs where,
    retries, leases, progress. *)
module Fold : sig
  type t

  val create :
    ?registry:Nakamoto_telemetry.Registry.t ->
    ?fault:Faultplan.armed ->
    ?fold_span:Nakamoto_telemetry.Span.t ->
    ?journal_path:string ->
    resume:bool ->
    log:(string -> unit) ->
    Spec.t ->
    t
  (** [create ~resume ~log spec] opens the journal at [journal_path]
      as {!run} documents it (header on a fresh start; torn-tail repair,
      fingerprint check and a ["resuming ..."] line to [log] on a
      resume) and plans the shards the journal does not cover.  Every
      append goes through {!Faultplan.journal_append} [fault].
      [registry] receives the journal's instruments and is the base of
      the final snapshot; without it, {!land_shard} drops every shard
      snapshot.  [fold_span] times each cell's slot merge.
      [spec] must already be valid.
      @raise Invalid_argument on a fingerprint mismatch.
      @raise Failure on a corrupt journal.
      @raise Unix.Unix_error or [Sys_error] when the journal cannot be
      opened, created or repaired. *)

  val spec : t -> Spec.t
  val cells : t -> Spec.cell array

  val plan : t -> Shard.t array
  (** The shards left to run, in plan order; {!land_shard} takes a
      position in this array. *)

  val trials_done : t -> int
  (** Resumed plus landed trials. *)

  val cells_done : t -> int
  val finished : t -> bool  (** every cell has merged *)

  val land_shard :
    t -> int -> Aggregate.t -> Nakamoto_telemetry.Registry.Snapshot.t -> bool
  (** [land_shard t pi agg snap] records the result of [plan t].(pi)
      (each position exactly once).  With a registry, [snap] waits until
      every lower plan position has landed, then merges into
      {!shard_telemetry} with the rest of the contiguous prefix; without
      one, it is dropped.  When [agg] completes its cell, the cell's
      slots merge in slot order, their storage is released, and every
      journal line now contiguous from the flushed prefix is appended;
      the result is [true] then. *)

  val shard_telemetry : t -> Nakamoto_telemetry.Registry.Snapshot.t
  (** The plan-order merge of every shard snapshot whose plan position
      and all lower ones have landed; {!Nakamoto_telemetry.Registry.Snapshot.empty}
      without a registry.  It trails the landed shards by those still in
      flight below them. *)

  val close : t -> unit
  (** Close the journal writer.  Idempotent. *)

  val finish : ?telemetry:string -> t -> jobs:int -> outcome
  (** Close the journal and build the outcome once {!finished}; with a
      registry, the outcome's snapshot is the registry's merged with
      {!shard_telemetry}.  While the registry's keys and the shards'
      keys are disjoint, as they are for {!run} and the serve daemon,
      that equals, bit for bit, merging every shard snapshot onto the
      registry's one by one in plan order.  [telemetry] names a
      directory (created if absent) that receives [telemetry.prom] and
      [telemetry.jsonl]. *)
end

val region : Spec.cell -> string
(** ["SAFE"] when [c] clears the neat bound [2mu/ln(mu/nu)], ["ATTACK"]
    when [nu] exceeds the PSS attack threshold at this [c], ["GAP"] for
    the open region in between. *)

val totals : outcome -> Aggregate.t
(** All cells merged (in cell order) — the campaign-wide pool. *)

val summary_table : outcome -> Nakamoto_numerics.Table.t
(** Per-cell table: parameters, [c], violation rate with Wilson 95%
    interval, reorg depths, growth, quality, the analytic {!region}
    verdict, and whether the observations agree with it (SAFE cells must
    show zero violations; ATTACK cells are expected to show some within
    the simulated horizon; the GAP is the paper's open question and gets
    ["-"]). *)
