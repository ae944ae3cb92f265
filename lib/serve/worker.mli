(** A socket worker: lease shards from a coordinator, compute, return.

    The compute step is {!Nakamoto_campaign.Campaign.run_shard} — the
    exact unit the in-process pool runs — so a shard computed here is
    bit-identical to one computed by [Campaign.run].  The worker is
    deliberately fragile: any exception (including an armed
    {!Nakamoto_campaign.Faultplan.Raising_worker}) escapes and kills the
    process mid-lease, which is precisely the failure the coordinator's
    heartbeat / lease-expiry / EOF reassignment exists to absorb.  Retry
    policy lives server-side, not here. *)

val run :
  addr:Conn.addr ->
  ?connect_timeout:float ->
  ?lease_batch:int ->
  ?fault:Nakamoto_campaign.Faultplan.t ->
  ?telemetry_clock:(unit -> float) ->
  ?log:(string -> unit) ->
  unit ->
  int
(** [run ~addr ()] connects — Unix socket or TCP — (retrying until
    [connect_timeout], default 10 s, a budget the handshake shares),
    performs the hello handshake, then keeps one [Lease_request] in
    flight: on each [Lease_grant] it sends the next request before
    computing the granted shards, then returns their [Cell_result]s in
    grant order, so the daemon's answer is queued while it computes.
    It sleeps through [No_work] backoffs before requesting again and
    answers coordinator [Ping]s with [Pong]s wherever it happens to be
    reading.  [lease_batch] (default 1) asks for up to that many leases
    per request, amortizing round trips at high shard counts; with the
    request in flight the worker holds up to [2 * lease_batch] leases
    (one batch computing, one granted or asked for), so the daemon's
    lease timeout must cover two batches' compute.
    Returns the number of shards computed when the coordinator closes
    the connection (daemon shutdown), whether the worker sees it as an
    EOF or as a failed write — the worker's natural exit.  When the
    daemon's [Hello_ack] says it collects telemetry, each shard records
    into a private telemetry registry
    ([campaign_shard_seconds{domain=<pid>}] plus the executor's [sim_*]
    instruments) whose entries ride back on the result frame; otherwise
    the shard runs with no registry and ships [res_telemetry = []].
    @raise Invalid_argument on [lease_batch < 1].
    @raise Failure on a handshake refusal or a server [Error] frame.
    @raise Nakamoto_campaign.Faultplan.Injected_crash / [Failure] when
    an armed fault fires mid-shard. *)
