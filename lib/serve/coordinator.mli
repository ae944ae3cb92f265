(** The campaign daemon: a single-threaded [Unix.select] event loop over
    a Unix-domain socket, a TCP listener, or both.

    One coordinator serves three kinds of peers over the same wire
    protocol: clients submitting campaign specs and streaming progress
    back, worker processes leasing shards (singly or in batches) and
    returning aggregate + telemetry snapshots, and assessment queries.
    The campaign fold is {!Nakamoto_campaign.Campaign.Fold}, the one
    [Campaign.run] drives in process: shard aggregates merge in slot
    order, telemetry snapshots in plan order as their contiguous prefix
    lands (none are kept without [telemetry]), and journal lines flush
    strictly in cell order through the fsync-on-append
    {!Nakamoto_campaign.Journal} writer — so the journal a daemon-run
    campaign produces is byte-identical to the one [Campaign.run] writes
    in process, for any transport, worker count, or failure schedule.  A
    submitted journal that cannot be opened, repaired or trusted is
    refused to the submitter with a typed [Error]; the daemon keeps
    serving.  Assessment queries run the exact
    {!Nakamoto_core.Assessment.assess}; a query it or
    {!Nakamoto_core.Params.of_c} rejects gets a typed [Error] too.

    {b Fleet hardening.}  Every accepted connection is non-blocking with
    a bounded per-connection output queue, drained opportunistically at
    enqueue time and again whenever [select] reports the socket
    writable.  A peer that stops reading therefore never wedges the
    event loop; once its queue exceeds [max_queue] bytes it is dropped
    (and its leases requeued) instead of buffered without bound.  At
    [max_conns] connections new dials are shed at accept time with a
    best-effort typed [Error] frame.  Lease holders that go quiet are
    probed with [Ping] frames every [heartbeat_interval]; an unanswered
    probe after [heartbeat_timeout] drops the connection and requeues its
    leases — long before the full [lease_timeout] — so a wedged worker
    costs a probe interval, not a lease interval.

    Leases carry a deadline: a shard whose worker disconnects or fails
    to answer within [lease_timeout] goes back to the head of the
    pending queue and is granted to the next worker that asks.  A result
    that arrives for an expired lease whose shard is still {e pending}
    is accepted (shards are pure functions of the spec, so the late copy
    is the result, and the recompute is spared); a result for a shard
    already completed or re-leased is a true duplicate and is
    discarded. *)

val serve :
  ?socket:string ->
  ?tcp:string * int ->
  ?max_campaigns:int ->
  ?max_conns:int ->
  ?max_queue:int ->
  ?lease_timeout:float ->
  ?heartbeat_interval:float ->
  ?heartbeat_timeout:float ->
  ?telemetry:string ->
  ?telemetry_clock:(unit -> float) ->
  ?log:(string -> unit) ->
  ?on_tcp_port:(int -> unit) ->
  unit ->
  int
(** [serve ?socket ?tcp ()] binds the given endpoints — a Unix socket
    path (unlinking any stale file first), a TCP [host, port] pair, or
    both; at least one is required — and runs the event loop; returns
    the number of campaigns served.

    With [max_campaigns] (>= 1) the daemon exits cleanly — queued output
    flushed (bounded, 5 s), connections closed, socket unlinked — after
    that many campaigns complete; without it the loop runs until the
    process is killed.  [max_conns] (default 240, safely under
    [FD_SETSIZE]) caps simultaneous connections; [max_queue] (default
    16 MiB, >= 64 KiB) caps each connection's unread output.
    [lease_timeout] (default 30 s) bounds how long a granted shard may
    stay unanswered before reassignment; [heartbeat_interval] (default
    [lease_timeout / 6]) and [heartbeat_timeout] (default
    [lease_timeout / 2]) govern the liveness probe of lease holders —
    the timeout must exceed the slowest shard compute, since a worker
    deep in a shard cannot answer until it surfaces.  Binding [tcp] with
    port 0 lets the kernel pick; [on_tcp_port] receives the bound port
    before the loop starts.  [telemetry] names a directory that receives
    [telemetry.prom] / [telemetry.jsonl] at each campaign completion:
    the daemon's own instruments (leases granted/expired, frames in/out,
    connections shed, heartbeat drops, queue-overflow drops, late
    results accepted, stale results dropped, the [serve_fold_seconds]
    span around every slot-order merge) merged with the workers' shard
    snapshots, which the fold merges in plan order as they land.
    [log] receives one-line operational messages (default: [stderr]
    prefixed with ["serve: "]).
    @raise Invalid_argument when neither [socket] nor [tcp] is given, on
    [max_campaigns < 1], [max_conns < 1], [max_queue < 65536], or
    non-positive heartbeat settings. *)
