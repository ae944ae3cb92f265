(** Typed protocol messages and their frame codec.

    The campaign daemon's whole vocabulary: version negotiation
    ([Hello]/[Hello_ack]), campaign submission, the worker lease cycle
    ([Lease_request] → [Lease_grant]/[No_work] → [Cell_result]),
    assessment queries, streamed [Progress], the terminal [Done], and
    the typed [Error] that replaces exceptions on the wire.

    Specs travel as their canonical JSON ({!Nakamoto_campaign.Spec.to_json}),
    so the fingerprint a worker computes from a received spec equals the
    submitter's.  Aggregates and telemetry snapshots travel as bit-exact
    binary ({!Codec}): a result that crosses the wire folds to the same
    journal bytes as one computed in-process — the topology-independence
    contract rests on this. *)

module Spec := Nakamoto_campaign.Spec
module Shard := Nakamoto_campaign.Shard
module Aggregate := Nakamoto_campaign.Aggregate
module Telemetry := Nakamoto_telemetry

type role = Worker | Client

type submit = {
  sub_spec : Spec.t;
  sub_journal : string option;
      (** daemon-side journal path; [None] = don't journal *)
  sub_resume : bool;  (** server-side {!Nakamoto_campaign.Journal.fold} resume *)
}

type lease = {
  lease_id : int;  (** coordinator-unique; echoed back in [Cell_result] *)
  shard : Shard.t;  (** the leased cell range: one cell's trial interval *)
}

type cell_result = {
  res_lease : int;
  res_shard : int;  (** plan id, for cross-checking the lease table *)
  res_aggregate : Aggregate.snapshot;
  res_telemetry : (Telemetry.Registry.Snapshot.key * Telemetry.Registry.Snapshot.value) list;
      (** entries of the shard's registry snapshot; [[]] when the daemon
          did not ask for them (its [Hello_ack] said [telemetry = false]) *)
}

type assess_params = { q_nu : float; q_c : float; q_n : float; q_delta : float }

type assess_reply = {
  a_zone : string;  (** ["SAFE"] / ["GAP"] / ["ATTACK"] *)
  a_neat_threshold : float;
  a_neat_margin : float;
  a_attack_threshold : float;
  a_confirmations : int option;
  a_rendered : string;  (** the full multi-line assessment, for humans *)
}

type progress = {
  p_trials_done : int;
  p_trials_total : int;
  p_cells_done : int;
  p_cells_total : int;
}

type t =
  | Hello of { version : int; role : role }
  | Hello_ack of { version : int; telemetry : bool }
      (** [telemetry]: whether the daemon collects shard telemetry.  It is
          fixed for the daemon's life, so it is acked once per connection;
          a worker told [false] records nothing and ships
          [res_telemetry = []]. *)
  | Submit_campaign of submit
  | Lease_request of { max : int }
      (** grant me up to [max] leases in one reply — batching amortizes
          round trips at high shard counts *)
  | Lease_grant of { grants : lease list; spec : Spec.t }
      (** 1 to [max] leases of one campaign; never empty (an empty
          queue answers [No_work]) *)
  | No_work of { retry_after : float }
      (** nothing leasable right now; poll again after [retry_after] s *)
  | Cell_result of cell_result
  | Query_assess of assess_params
  | Assess_reply of assess_reply
  | Progress of progress
  | Done of { table : string; journal : string option }
  | Error of string
  | Ping of { nonce : int }
      (** heartbeat probe: the coordinator pings lease holders so a
          wedged-but-connected worker is detected before the full lease
          timeout; every peer must answer [Pong] with the same nonce *)
  | Pong of { nonce : int }

val tag : t -> int
(** The frame tag byte; stable across releases within a protocol
    version. *)

val encode : t -> int * string
(** [(tag, payload)]. *)

val decode : tag:int -> payload:string -> (t, string) result
(** Total: an unknown tag or an undecodable payload is an [Error]
    result, never an exception — servers answer it with a typed
    {!constructor-Error} frame rather than dying. *)

(** {2 Channel helpers} *)

type read_result =
  [ `Msg of t | `Eof | `Timeout | `Bad of string ]

val send : Frame.Channel.t -> t -> unit
val recv : ?timeout:float -> Frame.Channel.t -> read_result
(** [`Bad] covers both framing violations and payload decode failures —
    either way the peer spoke a language we don't, and the caller should
    reply {!constructor-Error} (if writable) and drop the connection. *)
