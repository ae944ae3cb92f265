module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message
module Spec = Nakamoto_campaign.Spec
module Shard = Nakamoto_campaign.Shard
module Aggregate = Nakamoto_campaign.Aggregate
module Campaign = Nakamoto_campaign.Campaign
module Faultplan = Nakamoto_campaign.Faultplan
module Tel = Nakamoto_telemetry

let default_log msg = Printf.eprintf "worker[%d]: %s\n%!" (Unix.getpid ()) msg

let run ~addr ?(connect_timeout = 10.) ?(lease_batch = 1) ?fault
    ?(telemetry_clock = Unix.gettimeofday) ?(log = default_log) () =
  if lease_batch < 1 then invalid_arg "Worker.run: lease_batch must be >= 1";
  let ch, collect =
    match Conn.establish ~addr ~timeout:connect_timeout ~role:Msg.Worker with
    | Ok acked -> acked
    | Error e -> failwith ("handshake failed: " ^ e)
  in
  let fd = Frame.Channel.fd ch in
  let fault = Option.map Faultplan.arm fault in
  (* Cache the decoded grid: every lease of one campaign carries the
     same spec, and [cells] must be recomputed only when it changes.
     A spec is plain data, so structural equality is its identity; the
     decoder hands back the same value for an unchanged spec, so the
     physical test settles it first. *)
  let cache : (Spec.t * Spec.cell array) option ref = ref None in
  let cells_of spec =
    match !cache with
    | Some (s, c) when s == spec || s = spec -> c
    | _ ->
      let c = Spec.cells spec in
      cache := Some (spec, c);
      c
  in
  let computed = ref 0 in
  let closed () =
    log (Printf.sprintf "coordinator closed; %d shards computed" !computed)
  in
  (* Heartbeats arrive on their own schedule — between a request and
     its grant, or queued up behind a long compute — and are answered
     wherever the worker happens to be reading. *)
  let rec recv () =
    match Msg.recv ch with
    | `Msg (Msg.Ping { nonce }) ->
      Msg.send ch (Msg.Pong { nonce });
      recv ()
    | `Timeout -> recv ()
    | other -> other
  in
  (* A daemon that collects no telemetry would drop a shard's snapshot
     on landing, so only a daemon that acked [telemetry] gets one. *)
  let compute spec cells { Msg.lease_id; shard } =
    let run ?telemetry () =
      Faultplan.wrap_task fault ~task:shard.Shard.id (fun () ->
          Campaign.run_shard ?telemetry spec cells shard)
    in
    let agg, res_telemetry =
      if not collect then (run (), [])
      else begin
        let sreg = Tel.Registry.create ~clock:telemetry_clock () in
        let sp =
          Tel.Registry.span sreg
            ~labels:[ ("domain", string_of_int (Unix.getpid ())) ]
            "campaign_shard_seconds"
        in
        let agg = Tel.Span.time sp (run ~telemetry:sreg) in
        (agg, Tel.Registry.Snapshot.entries (Tel.Registry.snapshot sreg))
      end
    in
    incr computed;
    Msg.send ch
      (Msg.Cell_result
         {
           Msg.res_lease = lease_id;
           res_shard = shard.Shard.id;
           res_aggregate = Aggregate.snapshot agg;
           res_telemetry;
         })
  in
  (* One request stays in flight: the next batch is asked for before
     this one computes, so the daemon's answer is waiting when the
     results are sent instead of costing a round trip per batch. *)
  let request () = Msg.send ch (Msg.Lease_request { max = lease_batch }) in
  let rec loop () =
    match recv () with
    | `Msg (Msg.Lease_grant { grants; spec }) ->
      request ();
      List.iter (compute spec (cells_of spec)) grants;
      loop ()
    | `Msg (Msg.No_work { retry_after }) ->
      Unix.sleepf (Float.max 0.01 retry_after);
      request ();
      loop ()
    | `Msg (Msg.Error e) -> failwith ("server error: " ^ e)
    | `Msg _ -> failwith "unexpected message from the coordinator"
    | `Timeout -> loop ()
    | `Eof ->
      (* The daemon served its campaigns and closed up: normal exit. *)
      closed ()
    | `Bad m -> failwith ("protocol error: " ^ m)
  in
  (* A daemon that finishes its last campaign closes every connection,
     possibly before this worker's next request is written: the same
     natural exit as an EOF. *)
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        request ();
        loop ()
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        closed ());
  !computed
