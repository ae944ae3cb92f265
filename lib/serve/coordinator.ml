module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message
module Spec = Nakamoto_campaign.Spec
module Shard = Nakamoto_campaign.Shard
module Aggregate = Nakamoto_campaign.Aggregate
module Campaign = Nakamoto_campaign.Campaign
module Fold = Campaign.Fold
module Core = Nakamoto_core
module Tel = Nakamoto_telemetry

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Frame.Decoder.t;
  c_buf : Bytes.t;
  mutable c_hello : bool;
  (* Output side: encoded frames queued until the socket is writable.
     [c_out_off] counts bytes of the head frame already written. *)
  c_out : string Queue.t;
  mutable c_out_off : int;
  mutable c_queued : int;
  (* Heartbeat state: when the peer last delivered any frame, and the
     outstanding ping (nonce, sent-at) if one is in flight. *)
  mutable c_last_seen : float;
  mutable c_ping : (int * float) option;
}

type lease_info = { l_plan : int; l_conn : int; l_deadline : float }

(* One in-flight campaign: the shared plan-order fold plus the lease
   state around it. *)
type campaign = {
  g_fold : Fold.t;
  g_plan : Shard.t array;
  g_journal_path : string option;
  mutable g_pending : int list;  (** plan indices awaiting a lease *)
  g_leases : (int, lease_info) Hashtbl.t;
  g_client : int;  (** conn id of the submitter, for progress / done *)
  g_workers : (int, unit) Hashtbl.t;  (** conn ids ever granted a lease *)
}

exception Done_serving

let default_log msg = Printf.eprintf "serve: %s\n%!" msg
let max_grants_per_request = 64

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp (host, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt fd Unix.SO_REUSEADDR true
   with Unix.Unix_error _ -> ());
  let ip =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] ->
        Unix.close fd;
        failwith (Printf.sprintf "no address found for host %s" host)
      | addrs -> addrs.(0)
      | exception Not_found ->
        Unix.close fd;
        failwith (Printf.sprintf "cannot resolve host %s" host))
  in
  (try Unix.bind fd (Unix.ADDR_INET (ip, port))
   with e -> Unix.close fd; raise e);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound_port)

let serve ?socket ?tcp ?max_campaigns ?(max_conns = 240)
    ?(max_queue = 16 * 1024 * 1024) ?(lease_timeout = 30.)
    ?heartbeat_interval ?heartbeat_timeout ?telemetry
    ?(telemetry_clock = Unix.gettimeofday) ?(log = default_log)
    ?(on_tcp_port = fun _ -> ()) () =
  (match max_campaigns with
  | Some n when n < 1 ->
    invalid_arg "Coordinator.serve: max_campaigns must be >= 1"
  | _ -> ());
  if socket = None && tcp = None then
    invalid_arg "Coordinator.serve: need a Unix socket path or a TCP endpoint";
  if max_conns < 1 then
    invalid_arg "Coordinator.serve: max_conns must be >= 1";
  if max_queue < 65536 then
    invalid_arg "Coordinator.serve: max_queue must be >= 65536";
  (* A wedged worker should lose its lease well before the lease itself
     expires: probe at a fraction of the lease timeout and drop a peer
     that stays silent for another fraction.  Both are overridable —
     the probe budget must exceed the slowest shard compute, since a
     worker deep in [run_shard] cannot answer until it surfaces. *)
  let heartbeat_interval =
    match heartbeat_interval with
    | Some s -> s
    | None -> Float.max 0.5 (lease_timeout /. 6.)
  in
  let heartbeat_timeout =
    match heartbeat_timeout with
    | Some s -> s
    | None -> Float.max (2. *. heartbeat_interval) (lease_timeout /. 2.)
  in
  if heartbeat_interval <= 0. || heartbeat_timeout <= 0. then
    invalid_arg "Coordinator.serve: heartbeat settings must be positive";
  Conn.ignore_sigpipe ();
  let tel =
    Option.map (fun _ -> Tel.Registry.create ~clock:telemetry_clock ()) telemetry
  in
  let counter name = Option.map (fun r -> Tel.Registry.counter r name) tel in
  let c_frames_in = counter "serve_frames_in_total" in
  let c_frames_out = counter "serve_frames_out_total" in
  let c_granted = counter "serve_leases_granted_total" in
  let c_expired = counter "serve_leases_expired_total" in
  let c_stale = counter "serve_stale_results_total" in
  let c_late = counter "serve_late_results_total" in
  let c_shed = counter "serve_conns_shed_total" in
  let c_hb_drop = counter "serve_heartbeat_drops_total" in
  let c_overflow = counter "serve_queue_overflow_drops_total" in
  let sp_fold = Option.map (fun r -> Tel.Registry.span r "serve_fold_seconds") tel in
  let unix_listener = Option.map listen_unix socket in
  let tcp_listener =
    match tcp with
    | None -> None
    | Some endpoint ->
      let fd, port = listen_tcp endpoint in
      on_tcp_port port;
      Some (fd, (fst endpoint, port))
  in
  let listeners =
    Option.to_list unix_listener
    @ List.map fst (Option.to_list tcp_listener)
  in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  (* The select loop's dispatch index: ready fd -> connection, kept in
     sync by accept/drop so readiness handling is O(ready), not
     O(ready * conns). *)
  let by_fd : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let next_conn = ref 0 in
  let next_lease = ref 0 in
  let next_nonce = ref 0 in
  let campaigns_served = ref 0 in
  let current : campaign option ref = ref None in

  (* --- connection plumbing --------------------------------------- *)
  let release_leases g ~conn_id ~reason =
    let stale =
      Hashtbl.fold
        (fun id l acc -> if l.l_conn = conn_id then (id, l) :: acc else acc)
        g.g_leases []
    in
    List.iter
      (fun (id, l) ->
        Hashtbl.remove g.g_leases id;
        g.g_pending <- l.l_plan :: g.g_pending;
        log
          (Printf.sprintf "lease %d (shard %d) released: %s; requeued" id
             g.g_plan.(l.l_plan).Shard.id reason))
      stale
  in
  let drop_conn conn reason =
    if Hashtbl.mem conns conn.c_id then begin
      Hashtbl.remove conns conn.c_id;
      Hashtbl.remove by_fd conn.c_fd;
      (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
      Option.iter
        (fun g -> release_leases g ~conn_id:conn.c_id ~reason)
        !current;
      if reason <> "eof" then
        log (Printf.sprintf "connection %d dropped: %s" conn.c_id reason)
    end
  in
  (* Drain as much queued output as the socket accepts right now; the
     fds are non-blocking, so a peer that stops reading costs EAGAIN
     and a retry at the next write-readiness, never a wedged loop. *)
  let rec try_flush conn =
    if Hashtbl.mem conns conn.c_id && not (Queue.is_empty conn.c_out) then begin
      let head = Queue.peek conn.c_out in
      let len = String.length head - conn.c_out_off in
      match Unix.write_substring conn.c_fd head conn.c_out_off len with
      | n ->
        conn.c_queued <- conn.c_queued - n;
        if n = len then begin
          ignore (Queue.pop conn.c_out);
          conn.c_out_off <- 0;
          try_flush conn
        end
        else conn.c_out_off <- conn.c_out_off + n
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error _ -> drop_conn conn "write failed"
      | exception Sys_error _ -> drop_conn conn "write failed"
    end
  in
  let send_msg conn m =
    if Hashtbl.mem conns conn.c_id then begin
      let tag, payload = Msg.encode m in
      let bytes = Frame.encode ~tag ~payload () in
      Queue.push bytes conn.c_out;
      conn.c_queued <- conn.c_queued + String.length bytes;
      Option.iter Tel.Counter.incr c_frames_out;
      if conn.c_queued > max_queue then begin
        (* Backpressure cap: a peer that will not read gets dropped, not
           buffered without bound. *)
        Option.iter Tel.Counter.incr c_overflow;
        drop_conn conn
          (Printf.sprintf
             "output queue overflow (%d bytes queued, peer not reading)"
             conn.c_queued)
      end
      else try_flush conn
    end
  in
  let send_progress g =
    match Hashtbl.find_opt conns g.g_client with
    | None -> ()
    | Some client ->
      send_msg client
        (Msg.Progress
           {
             Msg.p_trials_done = Fold.trials_done g.g_fold;
             p_trials_total = Spec.trial_count (Fold.spec g.g_fold);
             p_cells_done = Fold.cells_done g.g_fold;
             p_cells_total = Array.length (Fold.cells g.g_fold);
           })
  in

  (* --- campaign completion --------------------------------------- *)
  let maybe_finish g =
    if Fold.finished g.g_fold then begin
      let outcome =
        Fold.finish ?telemetry g.g_fold
          ~jobs:(max 1 (Hashtbl.length g.g_workers))
      in
      let table =
        Nakamoto_numerics.Table.render (Campaign.summary_table outcome)
      in
      (match Hashtbl.find_opt conns g.g_client with
      | None -> ()
      | Some client ->
        send_msg client (Msg.Done { table; journal = g.g_journal_path }));
      incr campaigns_served;
      current := None;
      log
        (Printf.sprintf "campaign %d complete: %s" !campaigns_served
           (Spec.describe outcome.Campaign.spec));
      match max_campaigns with
      | Some n when !campaigns_served >= n -> raise Done_serving
      | _ -> ()
    end
  in

  (* --- message handlers ------------------------------------------ *)
  (* A journal the daemon cannot open, repair or trust is the
     submitter's error, reported as a typed refusal; the daemon keeps
     serving. *)
  let start_campaign conn (s : Msg.submit) =
    match !current with
    | Some _ -> send_msg conn (Msg.Error "busy: a campaign is already running")
    | None -> (
      let spec = s.Msg.sub_spec in
      match
        Spec.validate spec;
        Fold.create ?registry:tel ?fold_span:sp_fold
          ?journal_path:s.Msg.sub_journal ~resume:s.Msg.sub_resume ~log spec
      with
      | exception (Invalid_argument m | Failure m | Sys_error m) ->
        send_msg conn (Msg.Error m)
      | exception Unix.Unix_error (e, fn, arg) ->
        send_msg conn
          (Msg.Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
      | fold ->
        let plan = Fold.plan fold in
        let g =
          {
            g_fold = fold;
            g_plan = plan;
            g_journal_path = s.Msg.sub_journal;
            g_pending = List.init (Array.length plan) Fun.id;
            g_leases = Hashtbl.create 16;
            g_client = conn.c_id;
            g_workers = Hashtbl.create 8;
          }
        in
        current := Some g;
        log
          (Printf.sprintf "campaign submitted by connection %d: %s" conn.c_id
             (Spec.describe spec));
        send_progress g;
        maybe_finish g)
  in
  let handle_lease_request conn ~max =
    match !current with
    | None -> send_msg conn (Msg.No_work { retry_after = 0.2 })
    | Some g -> (
      match g.g_pending with
      | [] -> send_msg conn (Msg.No_work { retry_after = 0.05 })
      | _ :: _ ->
        let now = Unix.gettimeofday () in
        let budget = max |> Int.max 1 |> Int.min max_grants_per_request in
        let rec take k acc =
          if k = 0 then List.rev acc
          else
            match g.g_pending with
            | [] -> List.rev acc
            | pi :: rest ->
              g.g_pending <- rest;
              let id = !next_lease in
              incr next_lease;
              Hashtbl.replace g.g_leases id
                {
                  l_plan = pi;
                  l_conn = conn.c_id;
                  l_deadline = now +. lease_timeout;
                };
              Option.iter Tel.Counter.incr c_granted;
              take (k - 1)
                ({ Msg.lease_id = id; shard = g.g_plan.(pi) } :: acc)
        in
        let grants = take budget [] in
        Hashtbl.replace g.g_workers conn.c_id ();
        send_msg conn (Msg.Lease_grant { grants; spec = Fold.spec g.g_fold }))
  in
  (* A landed shard result — the same whether the lease was live or the
     result arrived late for a requeued shard. *)
  let apply_result g ~pi agg snap =
    if Fold.land_shard g.g_fold pi agg snap then begin
      send_progress g;
      maybe_finish g
    end
  in
  let decode_result conn (r : Msg.cell_result) k =
    match
      ( Aggregate.of_snapshot r.Msg.res_aggregate,
        Tel.Registry.Snapshot.of_entries r.Msg.res_telemetry )
    with
    | exception Invalid_argument m ->
      send_msg conn (Msg.Error ("malformed result: " ^ m));
      drop_conn conn "malformed result"
    | agg, snap -> k agg snap
  in
  let handle_cell_result conn (r : Msg.cell_result) =
    match !current with
    | None -> Option.iter Tel.Counter.incr c_stale
    | Some g -> (
      match Hashtbl.find_opt g.g_leases r.Msg.res_lease with
      | None -> (
        (* The lease expired (or its connection died) and the shard went
           back to pending.  Shards are deterministic, so if nobody has
           recomputed or re-leased it yet, this late copy is as good as
           any — accept it and spare the recompute.  Anything else is a
           genuine duplicate: the first landed copy stays
           authoritative. *)
        match
          List.find_opt
            (fun pi -> g.g_plan.(pi).Shard.id = r.Msg.res_shard)
            g.g_pending
        with
        | Some pi ->
          decode_result conn r (fun agg snap ->
              g.g_pending <- List.filter (fun pj -> pj <> pi) g.g_pending;
              Option.iter Tel.Counter.incr c_late;
              log
                (Printf.sprintf
                   "late result for lease %d (shard %d) accepted: shard was \
                    still unassigned"
                   r.Msg.res_lease r.Msg.res_shard);
              apply_result g ~pi agg snap)
        | None ->
          Option.iter Tel.Counter.incr c_stale;
          log
            (Printf.sprintf "ignoring stale result for lease %d (shard %d)"
               r.Msg.res_lease r.Msg.res_shard))
      | Some l ->
        (* A refused result leaves its lease in the table, so dropping
           the connection requeues the shard with the peer's others. *)
        let sh = g.g_plan.(l.l_plan) in
        if sh.Shard.id <> r.Msg.res_shard then begin
          send_msg conn
            (Msg.Error
               (Printf.sprintf "lease %d covers shard %d, not %d"
                  r.Msg.res_lease sh.Shard.id r.Msg.res_shard));
          drop_conn conn "shard id mismatch"
        end
        else
          decode_result conn r (fun agg snap ->
              Hashtbl.remove g.g_leases r.Msg.res_lease;
              apply_result g ~pi:l.l_plan agg snap))
  in
  (* The whole reply is computed under the handler: a query the library
     rejects, in the parameters or deep in the assessment, becomes a
     typed Error for that peer and never escapes the select loop. *)
  let handle_assess conn (q : Msg.assess_params) =
    match
      let p =
        Core.Params.of_c ~n:q.Msg.q_n ~delta:q.Msg.q_delta ~nu:q.Msg.q_nu
          ~c:q.Msg.q_c
      in
      let a = Core.Assessment.assess p in
      Msg.Assess_reply
        {
          Msg.a_zone = Core.Assessment.zone_to_string a.Core.Assessment.zone;
          a_neat_threshold = a.neat_threshold;
          a_neat_margin = a.neat_margin;
          a_attack_threshold = a.attack_threshold;
          a_confirmations =
            Option.map
              (fun (c : Core.Confirmation.assessment) ->
                c.Core.Confirmation.confirmations)
              a.confirmations;
          a_rendered = Format.asprintf "%a" Core.Assessment.pp a;
        }
    with
    | reply -> send_msg conn reply
    | exception (Invalid_argument m | Failure m) -> send_msg conn (Msg.Error m)
  in
  let handle_msg conn (m : Msg.t) =
    conn.c_last_seen <- Unix.gettimeofday ();
    if not conn.c_hello then begin
      match m with
      | Msg.Hello { version; _ }
        when version >= Frame.min_protocol_version
             && version <= Frame.protocol_version ->
        conn.c_hello <- true;
        send_msg conn
          (Msg.Hello_ack
             { version = Frame.protocol_version; telemetry = tel <> None })
      | Msg.Hello { version; _ } ->
        send_msg conn
          (Msg.Error
             (Printf.sprintf
                "protocol version mismatch: server speaks %d (accepts >= \
                 %d), peer sent %d"
                Frame.protocol_version Frame.min_protocol_version version));
        drop_conn conn "version mismatch"
      | _ ->
        send_msg conn (Msg.Error "expected hello");
        drop_conn conn "no hello"
    end
    else
      match m with
      | Msg.Hello _ ->
        send_msg conn (Msg.Error "duplicate hello");
        drop_conn conn "duplicate hello"
      | Msg.Submit_campaign s -> start_campaign conn s
      | Msg.Lease_request { max } -> handle_lease_request conn ~max
      | Msg.Cell_result r -> handle_cell_result conn r
      | Msg.Query_assess q -> handle_assess conn q
      | Msg.Ping { nonce } -> send_msg conn (Msg.Pong { nonce })
      | Msg.Pong _ -> conn.c_ping <- None
      | Msg.Error e -> log (Printf.sprintf "peer %d error: %s" conn.c_id e)
      | Msg.Hello_ack _ | Msg.Lease_grant _ | Msg.No_work _
      | Msg.Assess_reply _ | Msg.Progress _ | Msg.Done _ ->
        send_msg conn (Msg.Error "unexpected message for a server");
        drop_conn conn "protocol violation"
  in

  (* --- the read path --------------------------------------------- *)
  let rec drain conn =
    if Hashtbl.mem conns conn.c_id then begin
      match Frame.Decoder.next conn.c_dec with
      | `Awaiting -> ()
      | `Bad msg ->
        send_msg conn (Msg.Error msg);
        drop_conn conn msg
      | `Frame (tag, payload) ->
        Option.iter Tel.Counter.incr c_frames_in;
        (match Msg.decode ~tag ~payload with
        | Ok m -> handle_msg conn m
        | Error msg ->
          (* Unknown tag or undecodable payload: a typed reply, and the
             connection survives — the framing itself was clean. *)
          send_msg conn (Msg.Error msg));
        drain conn
    end
  in
  let handle_readable conn =
    match Unix.read conn.c_fd conn.c_buf 0 (Bytes.length conn.c_buf) with
    | 0 ->
      if Frame.Decoder.available conn.c_dec > 0 then
        drop_conn conn "eof mid-frame"
      else drop_conn conn "eof"
    | n ->
      Frame.Decoder.feed conn.c_dec (Bytes.sub_string conn.c_buf 0 n);
      drain conn
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      drop_conn conn "connection reset"
  in
  let shed fd =
    (* Accept-time shedding: at the connection cap, refuse with a typed
       frame (best-effort, single write) instead of leaving the dial
       hanging in the backlog. *)
    Option.iter Tel.Counter.incr c_shed;
    let tag, payload =
      Msg.encode (Msg.Error "server at connection capacity; retry later")
    in
    let bytes = Frame.encode ~tag ~payload () in
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    (try ignore (Unix.write_substring fd bytes 0 (String.length bytes))
     with Unix.Unix_error _ | Sys_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    log
      (Printf.sprintf "connection shed: %d connections at the cap" max_conns)
  in
  let rec accept_loop lfd ~is_tcp =
    match Unix.accept lfd with
    | fd, _ ->
      if Hashtbl.length conns >= max_conns then shed fd
      else begin
        Unix.set_nonblock fd;
        if is_tcp then (
          try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ());
        let id = !next_conn in
        incr next_conn;
        let conn =
          {
            c_id = id;
            c_fd = fd;
            c_dec = Frame.Decoder.create ();
            c_buf = Bytes.create 65536;
            c_hello = false;
            c_out = Queue.create ();
            c_out_off = 0;
            c_queued = 0;
            c_last_seen = Unix.gettimeofday ();
            c_ping = None;
          }
        in
        Hashtbl.replace conns id conn;
        Hashtbl.replace by_fd fd conn
      end;
      accept_loop lfd ~is_tcp
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop lfd ~is_tcp
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
      accept_loop lfd ~is_tcp
  in
  let expire_leases g now =
    let expired =
      Hashtbl.fold
        (fun id l acc -> if l.l_deadline <= now then (id, l) :: acc else acc)
        g.g_leases []
    in
    List.iter
      (fun (id, l) ->
        Hashtbl.remove g.g_leases id;
        g.g_pending <- l.l_plan :: g.g_pending;
        Option.iter Tel.Counter.incr c_expired;
        log
          (Printf.sprintf
             "lease %d (shard %d, connection %d) expired after %.1fs; \
              requeued"
             id g.g_plan.(l.l_plan).Shard.id l.l_conn lease_timeout))
      expired
  in
  (* Probe lease holders that have gone quiet; drop the ones whose probe
     went unanswered.  A worker that merely computes surfaces and pongs
     within [heartbeat_timeout]; one that stopped reading never will,
     and its leases go back to the queue long before [lease_timeout]. *)
  let heartbeat g now =
    let holders = Hashtbl.create 8 in
    Hashtbl.iter (fun _ l -> Hashtbl.replace holders l.l_conn ()) g.g_leases;
    let to_drop = ref [] in
    Hashtbl.iter
      (fun cid () ->
        match Hashtbl.find_opt conns cid with
        | None -> ()
        | Some conn -> (
          match conn.c_ping with
          | Some (_, sent) when now -. sent > heartbeat_timeout ->
            to_drop := conn :: !to_drop
          | Some _ -> ()
          | None ->
            if now -. conn.c_last_seen >= heartbeat_interval then begin
              let nonce = !next_nonce in
              incr next_nonce;
              conn.c_ping <- Some (nonce, now);
              send_msg conn (Msg.Ping { nonce })
            end))
      holders;
    List.iter
      (fun conn ->
        Option.iter Tel.Counter.incr c_hb_drop;
        drop_conn conn
          (Printf.sprintf "heartbeat timeout (no pong within %.1fs)"
             heartbeat_timeout))
      !to_drop
  in

  (* --- the loop ---------------------------------------------------- *)
  let flush_remaining conn =
    (* Shutdown courtesy: the queued Done/Error frames should reach the
       peer before the fd closes, but a wedged peer must not wedge the
       daemon's exit — bound the blocking flush. *)
    let deadline = Unix.gettimeofday () +. 5. in
    try
      while not (Queue.is_empty conn.c_out) do
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then raise Exit;
        match Unix.select [] [ conn.c_fd ] [] remaining with
        | _, [], _ -> raise Exit
        | _ ->
          let head = Queue.peek conn.c_out in
          let len = String.length head - conn.c_out_off in
          let n = Unix.write_substring conn.c_fd head conn.c_out_off len in
          if n = len then begin
            ignore (Queue.pop conn.c_out);
            conn.c_out_off <- 0
          end
          else conn.c_out_off <- conn.c_out_off + n
      done
    with
    | Exit -> ()
    | Unix.Unix_error _ | Sys_error _ -> ()
  in
  let cleanup () =
    Hashtbl.iter
      (fun _ conn ->
        flush_remaining conn;
        try Unix.close conn.c_fd with Unix.Unix_error _ -> ())
      conns;
    Hashtbl.reset conns;
    Hashtbl.reset by_fd;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      listeners;
    match socket with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ()
  in
  Option.iter (fun path -> log (Printf.sprintf "listening on %s" path)) socket;
  Option.iter
    (fun (_, (host, port)) ->
      log (Printf.sprintf "listening on tcp %s:%d" host port))
    tcp_listener;
  (try
     while true do
       let timeout =
         match !current with
         | Some g when Hashtbl.length g.g_leases > 0 ->
           (* Wake for the nearest lease deadline, but at least twice
              per heartbeat interval so probes go out on time. *)
           let now = Unix.gettimeofday () in
           let next =
             Hashtbl.fold
               (fun _ l acc -> Float.min acc l.l_deadline)
               g.g_leases infinity
           in
           Float.max 0.01
             (Float.min (next -. now) (heartbeat_interval /. 2.))
         | _ -> -1.
       in
       let read_fds =
         listeners @ Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) conns []
       in
       let write_fds =
         Hashtbl.fold
           (fun _ c acc -> if c.c_queued > 0 then c.c_fd :: acc else acc)
           conns []
       in
       let readable, writable, _ =
         match Unix.select read_fds write_fds [] timeout with
         | r -> r
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       List.iter
         (fun fd ->
           match Hashtbl.find_opt by_fd fd with
           | Some conn -> try_flush conn
           | None -> ())
         writable;
       List.iter
         (fun fd ->
           if Option.fold ~none:false ~some:(( = ) fd) unix_listener then
             accept_loop fd ~is_tcp:false
           else if
             Option.fold ~none:false ~some:(fun (l, _) -> l = fd) tcp_listener
           then accept_loop fd ~is_tcp:true
           else
             match Hashtbl.find_opt by_fd fd with
             | Some conn -> handle_readable conn
             | None -> ())
         readable;
       let now = Unix.gettimeofday () in
       Option.iter (fun g -> expire_leases g now) !current;
       Option.iter (fun g -> heartbeat g now) !current
     done
   with
  | Done_serving -> cleanup ()
  | e ->
    cleanup ();
    raise e);
  !campaigns_served
