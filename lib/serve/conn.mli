(** Client-side connection establishment for the serve protocol.

    Both the worker and the submitting client start the same way: dial
    the coordinator — a Unix-domain socket or a TCP endpoint, the wire
    protocol is transport-agnostic — with a bounded retry loop (so a
    process launched moments before the daemon still connects) and run
    the version handshake.  SIGPIPE is switched to ignore exactly once
    per process — every peer of a socket protocol must survive the
    other end dying mid-write. *)

type addr =
  | Unix_path of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val addr_to_string : addr -> string

val ignore_sigpipe : unit -> unit
(** Idempotent: the first call installs [Signal_ignore] for SIGPIPE,
    later calls are free.  [connect] forces it; servers call it
    directly. *)

val connect : addr:addr -> timeout:float -> Unix.file_descr
(** Dial [addr], retrying on [ENOENT]/[ECONNREFUSED] (and the TCP
    equivalents) every 50 ms until [timeout] seconds have passed.  TCP
    connections get [TCP_NODELAY].
    @raise Unix.Unix_error when the deadline expires.
    @raise Failure when a TCP host does not resolve. *)

val handshake :
  ?timeout:float ->
  role:Nakamoto_wire.Message.role ->
  Nakamoto_wire.Frame.Channel.t ->
  (bool, string) result
(** Send [Hello] at {!Nakamoto_wire.Frame.protocol_version} and await
    [Hello_ack], accepting any acked version in
    [[min_protocol_version, protocol_version]].  [Ok telemetry] is the
    ack's flag: whether the daemon collects shard telemetry, so a
    worker knows whether to record any.  [timeout] (default 10 s)
    bounds the recv.  [Error] carries the server's typed refusal
    (version mismatch) or a transport failure. *)

val establish :
  addr:addr ->
  timeout:float ->
  role:Nakamoto_wire.Message.role ->
  (Nakamoto_wire.Frame.Channel.t * bool, string) result
(** [connect] then [handshake] under a single deadline: the handshake
    recv gets whatever the connect retries left of [timeout] (floored
    at one second).  [Ok (ch, telemetry)] pairs the channel with the
    ack's telemetry flag.  On [Error] the descriptor is already
    closed. *)
