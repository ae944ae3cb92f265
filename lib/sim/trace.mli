(** Round-by-round execution traces: record, render, parse, diff.

    A trace is the per-round skeleton of an execution — enough to replay
    an experiment's dynamics in a log, to golden-test determinism, and to
    eyeball where an attack struck.  The text format is line-oriented:

    {v
    # nakamoto trace v1
    round honest_blocks adversary_blocks releases best_height reorg_depth
    1 0 1 0 0 0
    2 2 0 0 1 0
    ...
    v}

    Fields are space-separated decimal integers; lines starting with [#]
    are comments. *)

type entry = {
  round : int;
  honest_blocks : int;  (** honest blocks mined this round *)
  adversary_blocks : int;  (** adversarial successes this round *)
  releases : int;  (** adversarial release messages issued this round *)
  best_height : int;  (** maximum honest chain height after the round *)
  reorg_depth : int;  (** deepest rollback any miner performed this round *)
}

type t

val create : unit -> t
val record : t -> entry -> unit
(** [record t e] appends; rounds must be recorded in increasing order.
    @raise Invalid_argument otherwise. *)

val length : t -> int
val entries : t -> entry list
(** Chronological. *)

val to_string : t -> string
(** Render in the v1 text format. *)

val of_string : string -> t
(** Parse the v1 format.
    @raise Failure on malformed input (wrong header, field count,
    non-numeric fields, or rounds that do not strictly increase). *)

val equal : t -> t -> bool

val digest : t -> int64
(** [digest t] hash-chains every field of every entry through SplitMix64 —
    a 64-bit fingerprint of the whole trace.  Golden tests pin a single
    digest instead of an embedded trace dump; {!equal} traces have equal
    digests, and any field drift anywhere in the run moves the digest. *)

val capture : Config.t -> t
(** [capture config] runs an instrumented execution and records every
    round.  The result is deterministic in [config.seed]: equal configs
    give {!equal} traces. *)

val summarize : t -> string
(** One-paragraph human summary: rounds, totals, max reorg, final
    height. *)
