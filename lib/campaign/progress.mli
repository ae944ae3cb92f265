(** Throughput and ETA reporting for long campaigns.

    The reporter is fed trial-completion counts from inside the worker
    pool's serialized [on_result] callback, and rate-limits its own
    output to a configurable cadence.  It writes to [stderr] by default
    so journals and summary tables on [stdout] stay machine-readable.
    A cadence of [0.] disables output entirely (the mode used by tests
    and the golden smoke run).

    Resume-aware: trials recovered from a journal are declared up front
    via [resumed_trials] and excluded from the throughput denominator,
    so [trials/s] and the ETA describe only the work this process is
    actually doing. *)

type t

val create :
  ?out:out_channel ->
  ?interval:float ->
  ?resumed_trials:int ->
  total_trials:int ->
  unit ->
  t
(** [create ~total_trials ()] starts the clock now.  [interval] is the
    minimum seconds between reports (default [5.]; [0.] silences the
    reporter).  [resumed_trials] (default [0]) is how many of
    [total_trials] were recovered from a journal rather than computed
    here; they count toward completion but not toward the rate.
    @raise Invalid_argument unless
    [0 <= resumed_trials <= total_trials]. *)

val silent : unit -> t
(** A fresh never-printing reporter.  A function, not a shared constant:
    each call returns its own record, so concurrent campaigns never
    share mutable reporter state. *)

val note : ?extra:(unit -> string) -> t -> trials_done:int -> unit
(** Record that [trials_done] trials have completed in total — resumed
    plus fresh, monotone, not incremental; prints a [trials/s] + ETA
    line when the cadence allows.  [extra], if given, is evaluated only
    when a line is actually printed, and its (non-empty) result is
    printed as one further [campaign: ...] line — the hook for the
    telemetry-derived shard-timing view.  Call under the pool mutex. *)

val finish : ?extra:(unit -> string) -> t -> trials_done:int -> unit
(** Print the final throughput line (unless silenced): fresh trials
    only, over this process's wall time.  [extra] as in {!note}. *)

val rate : t -> trials_done:int -> now:float -> float
(** Fresh trials per second: [(trials_done - resumed_trials) / (now -
    started)].  Exposed for tests; [now] is a [Unix.gettimeofday]-style
    timestamp. *)

val eta : t -> trials_done:int -> now:float -> float
(** Seconds to finish the remaining [total_trials - trials_done] at the
    current {!rate}; [0.] when done, [infinity] when the rate is 0. *)

val started : t -> float
(** The creation timestamp (the clock {!rate} measures from). *)
