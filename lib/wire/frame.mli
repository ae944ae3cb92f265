(** Length-prefixed binary framing over a stream socket.

    A frame is [u32 length (big-endian)] + [u8 tag] + [payload], where
    [length] counts the tag byte plus the payload — the
    [Message_channel] shape of framed p2p protocols, with three
    defensive properties baked in:

    - {b max-frame cap}: a length above [max_payload + 1] is rejected
      before any payload byte is read, so a corrupt or hostile peer
      cannot make the reader allocate unboundedly;
    - {b truncation is typed}: EOF in the middle of a frame yields
      [`Bad], distinct from the clean [`Eof] at a frame boundary — a
      torn frame is a protocol error, a closed connection is not;
    - {b read timeouts}: every blocking read takes an optional deadline
      and yields [`Timeout] instead of hanging on a stalled peer.

    The {!Decoder} is the same state machine in pull form, for callers
    (the serve coordinator) that multiplex many connections under
    [select] and feed bytes as they arrive. *)

val protocol_version : int
(** Version negotiated by the [Hello] exchange; bumped on any breaking
    change to the framing or message payloads.  Version 2 added
    heartbeats ([Ping]/[Pong]) and batched lease grants; version 3 added
    the [telemetry] flag of [Hello_ack]. *)

val min_protocol_version : int
(** Oldest peer version a server still accepts: the handshake admits
    any [Hello] version in [[min_protocol_version, protocol_version]]
    and acks with the server's own version.  Both ends apply the same
    rule, so a mixed fleet drains cleanly across a compatible bump. *)

val default_max_payload : int
(** 8 MiB — generous for campaign specs and telemetry snapshots, small
    enough that a garbage length prefix fails fast. *)

type result =
  [ `Frame of int * string  (** tag, payload *)
  | `Eof  (** clean close at a frame boundary *)
  | `Timeout
  | `Bad of string  (** truncated frame, oversized length, zero length *)
  ]

val encode : ?max_payload:int -> tag:int -> payload:string -> unit -> string
(** The frame bytes, without touching a descriptor — for callers (the
    serve coordinator) that queue writes and drain them on
    write-readiness instead of blocking.
    @raise Invalid_argument if [tag] is outside [0, 255] or the payload
    exceeds [max_payload] (default {!default_max_payload}). *)

val write : ?max_payload:int -> Unix.file_descr -> tag:int -> payload:string -> unit
(** Write one frame (single buffered write, looped to completion).
    @raise Invalid_argument under {!encode}'s conditions. *)

(** {2 Blocking channel}

    A descriptor plus the incremental decoder state.  The decoder is
    persistent across reads — two frames arriving in one TCP segment
    must both be delivered — so blocking readers (worker, client) hold a
    channel, never a bare descriptor. *)

module Channel : sig
  type t

  val of_fd : ?max_payload:int -> Unix.file_descr -> t
  (** [max_payload] (default {!default_max_payload}) caps {e both}
      directions: frames read through and written over this channel. *)

  val fd : t -> Unix.file_descr

  val write : t -> tag:int -> payload:string -> unit
  (** Write one frame under the channel's own cap — a channel created
      with a larger [max_payload] can write the large frames it was
      configured to read. *)

  val read : ?timeout:float -> t -> result
  (** Read exactly one frame.  [timeout] bounds the {e total} wall-clock
      wait (default: block forever); [`Timeout] may leave a partial
      frame buffered — harmless, the next read resumes where it left
      off. *)
end

(** {2 Incremental decoding} *)

module Decoder : sig
  type t

  val create : ?max_payload:int -> unit -> t

  val feed : t -> string -> unit
  (** Append received bytes. *)

  val available : t -> int
  (** Buffered bytes not yet extracted — nonzero at EOF means the peer
      died mid-frame. *)

  val next : t -> [ `Frame of int * string | `Awaiting | `Bad of string ]
  (** Extract the next complete frame, if any.  After [`Bad] the decoder
      is poisoned and keeps returning the same error — framing cannot
      resynchronize, the connection must be dropped. *)
end
