(* End-to-end serve subsystem tests: daemon, workers and client run in
   separate domains talking over real sockets — Unix-domain and TCP
   loopback.  (Domains, not forks: OCaml forbids [Unix.fork] once any
   domain has ever been spawned, and the campaign engine spawns domains
   for [~jobs].)

   The headline is topology independence: the same spec + seed must
   produce a byte-identical journal whether the campaign runs in
   process, through a daemon with one socket worker, through TCP, or
   through a fleet where workers die or wedge mid-lease. *)

open Helpers
module Campaign = Nakamoto_campaign
module Spec = Campaign.Spec
module Serve = Nakamoto_serve
module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message
module Aggregate = Campaign.Aggregate

let tiny_spec =
  {
    Spec.default with
    Spec.ps = [ 0.02 ];
    ns = [ 8 ];
    deltas = [ 2 ];
    nus = [ 0.1; 0.3 ];
    trials_per_cell = 4;
    rounds = 120;
    seed = 77L;
    shard_size = 1;
  }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let temp_path tag suffix =
  let path = Filename.temp_file ("nakamoto_serve_" ^ tag) suffix in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path
let silent _ = ()

(* The in-process journal every daemon topology must reproduce
   byte-for-byte.  Computed once. *)
let oracle =
  lazy
    (let j = temp_path "inproc" ".jsonl" in
     ignore
       (Campaign.Campaign.run ~jobs:2 ~journal_path:j ~log:silent tiny_spec);
     let s = read_file j in
     cleanup j;
     s)

(* Domain bodies report an exit-code-like int so the assertions read the
   same as they would for processes. *)
let spawn_daemon ?socket ?tcp ?on_tcp_port ?telemetry
    ?(lease_timeout = 5.) ?heartbeat_interval ?heartbeat_timeout () =
  Domain.spawn (fun () ->
      try
        ignore
          (Serve.Coordinator.serve ?socket ?tcp ?on_tcp_port ~max_campaigns:1
             ~lease_timeout ?heartbeat_interval ?heartbeat_timeout ?telemetry
             ~log:silent ());
        0
      with _ -> 3)

let spawn_worker ~addr ?lease_batch ?fault () =
  Domain.spawn (fun () ->
      try
        ignore (Serve.Worker.run ~addr ?lease_batch ?fault ~log:silent ());
        0
      with _ -> 70)

let submit ?(resume = false) ?on_progress ~addr ~journal () =
  match Serve.Client.submit ~addr ~journal ~resume ?on_progress tiny_spec with
  | Ok (table, jpath) ->
    check_true "table is rendered" (String.length table > 0);
    check_true "journal path echoed" (jpath = Some journal)
  | Error e -> Alcotest.failf "submit failed: %s" e

(* A hand-driven connection, for the tests that need a peer the real
   [Worker.run] or [Client] would never be: one that wedges, one that
   answers after its lease expired, or one that reads the raw reply. *)
let peer_conn ?(role = Msg.Worker) ~addr () =
  let fd = Serve.Conn.connect ~addr ~timeout:10. in
  let ch = Frame.Channel.of_fd fd in
  (match Serve.Conn.handshake ~role ch with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "handshake: %s" e);
  (fd, ch)

let rec await_grant ch =
  match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Lease_grant { grants = [ g ]; spec }) -> (g, spec)
  | `Msg (Msg.Lease_grant _) -> Alcotest.fail "asked for one lease, got more"
  | `Msg (Msg.Ping { nonce }) ->
    Msg.send ch (Msg.Pong { nonce });
    await_grant ch
  | `Msg (Msg.No_work _) ->
    Unix.sleepf 0.05;
    Msg.send ch (Msg.Lease_request { max = 1 });
    await_grant ch
  | `Timeout -> await_grant ch
  | _ -> Alcotest.fail "unexpected reply to a lease request"

let obtain_grant ch =
  Msg.send ch (Msg.Lease_request { max = 1 });
  await_grant ch

(* Stay connected and responsive (pongs flow) without returning the
   shard — exactly what a slow-but-alive worker looks like. *)
let idle_answering_pings ch ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < deadline do
    match Msg.recv ~timeout:0.2 ch with
    | `Msg (Msg.Ping { nonce }) -> Msg.send ch (Msg.Pong { nonce })
    | `Timeout | `Msg _ -> ()
    | `Eof -> Alcotest.fail "daemon hung up on a live worker"
    | `Bad m -> Alcotest.failf "protocol error: %s" m
  done

(* Exposition lines read as "name{labels} value" or "name value". *)
let prom_metric line =
  let stop =
    match String.index_opt line '{' with
    | Some i -> i
    | None ->
      Option.value ~default:(String.length line) (String.index_opt line ' ')
  in
  String.sub line 0 stop

(* The sum of every sample of [name] across its label sets. *)
let prom_sample text name =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#' && prom_metric l = name)
  |> List.fold_left
       (fun acc l ->
         let sp = String.rindex l ' ' in
         acc + int_of_string (String.sub l (sp + 1) (String.length l - sp - 1)))
       0

let temp_dir tag =
  let dir = Filename.temp_file ("nakamoto_serve_" ^ tag) "" in
  Sys.remove dir;
  dir

let read_prom dir = read_file (Filename.concat dir "telemetry.prom")

let cleanup_telemetry dir =
  List.iter cleanup
    [
      Filename.concat dir "telemetry.prom";
      Filename.concat dir "telemetry.jsonl";
    ];
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let plan_length = Spec.trial_count tiny_spec / tiny_spec.Spec.shard_size

(* A worker killed mid-lease hands shard 0 back, and the daemon grants
   that lease a second time. *)
let check_requeue_granted teldir =
  let granted = prom_sample (read_prom teldir) "serve_leases_granted_total" in
  if granted < plan_length + 1 then
    Alcotest.failf
      "leases granted = %d, expected at least %d (plan + the requeued shard 0)"
      granted (plan_length + 1)

let test_topology_independence () =
  let oracle = Lazy.force oracle in

  (* (a) daemon + one socket worker leasing in batches, daemon-side
     telemetry on *)
  let socket = temp_path "b" ".sock" in
  let j_one = temp_path "one" ".jsonl" in
  let teldir = temp_dir "tel" in
  let daemon = spawn_daemon ~socket ~telemetry:teldir () in
  let addr = Serve.Conn.Unix_path socket in
  let worker = spawn_worker ~addr ~lease_batch:3 () in
  let progress_frames = ref 0 in
  submit ~addr ~journal:j_one ~on_progress:(fun _ -> incr progress_frames) ();
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "worker exits cleanly on daemon close" 0 (Domain.join worker);
  check_true "progress was streamed" (!progress_frames > 0);
  Alcotest.(check string) "one-worker journal = in-process journal" oracle
    (read_file j_one);
  let prom = read_prom teldir in
  check_true "daemon counters exported"
    (contains_substring ~affix:"serve_leases_granted_total" prom);
  check_true "fold span exported"
    (contains_substring ~affix:"serve_fold_seconds" prom);
  check_true "worker shard spans exported"
    (contains_substring ~affix:"campaign_shard_seconds" prom);
  (* The daemon's exposition counts what the in-process run counts:
     every clock-free [sim_*] and [campaign_journal_*] sample agrees, one
     shard span and one grant per plan entry, one fold per cell. *)
  let inproc_prom =
    let j = temp_path "inproc_tel" ".jsonl" in
    let dir = temp_path "inproc_tel" "" in
    let outcome =
      Campaign.Campaign.run ~jobs:2 ~journal_path:j ~telemetry:dir
        ~log:silent tiny_spec
    in
    List.iter cleanup
      [
        j; Filename.concat dir "telemetry.prom";
        Filename.concat dir "telemetry.jsonl";
      ];
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    match outcome.Campaign.Campaign.telemetry with
    | Some snap -> Nakamoto_telemetry.Export.prometheus snap
    | None -> Alcotest.fail "in-process run exported no telemetry"
  in
  let starts p s = String.starts_with ~prefix:p s in
  let ends p s = String.ends_with ~suffix:p s in
  let count_lines text =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           let m = prom_metric l in
           (starts "sim_" m || starts "campaign_journal_" m)
           && not (ends "_seconds_sum" m || ends "_seconds_bucket" m))
  in
  let in_lines = count_lines inproc_prom in
  check_true "in-process sim/journal counts present" (List.length in_lines > 10);
  Alcotest.(check (list string)) "daemon sim/journal counts = in-process"
    in_lines (count_lines prom);
  check_int "one shard span per plan entry" plan_length
    (prom_sample prom "campaign_shard_seconds_count");
  check_int "one fold per cell" (Array.length (Spec.cells tiny_spec))
    (prom_sample prom "serve_fold_seconds_count");
  check_int "one grant per plan entry" plan_length
    (prom_sample prom "serve_leases_granted_total");

  (* (b) daemon + a worker that dies mid-lease + a healthy worker.  The
     faulty worker joins alone first, so it necessarily leases shard 0
     and dies computing it; the healthy worker then absorbs the
     requeued lease. *)
  let socket = temp_path "c" ".sock" in
  let j_kill = temp_path "kill" ".jsonl" in
  let teldir_kill = temp_dir "tel_kill" in
  let daemon = spawn_daemon ~socket ~telemetry:teldir_kill () in
  let addr = Serve.Conn.Unix_path socket in
  let faulty =
    spawn_worker ~addr
      ~fault:(Campaign.Faultplan.Raising_worker { task = 0; failures = 1 })
      ()
  in
  (* Submit from its own domain so this one can sequence worker startup
     around the faulty worker's death. *)
  let client =
    Domain.spawn (fun () ->
        match Serve.Client.submit ~addr ~journal:j_kill tiny_spec with
        | Ok _ -> 0
        | Error _ | (exception _) -> 4)
  in
  check_int "faulty worker died mid-lease" 70 (Domain.join faulty);
  let healthy = spawn_worker ~addr () in
  check_int "client saw Done" 0 (Domain.join client);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "healthy worker exits cleanly" 0 (Domain.join healthy);
  Alcotest.(check string) "kill-mid-lease journal = in-process journal"
    oracle (read_file j_kill);
  check_requeue_granted teldir_kill;

  (* (c) server-side resume: a fresh daemon over the finished journal
     recomputes nothing and the bytes stay identical. *)
  let socket = temp_path "d" ".sock" in
  let daemon = spawn_daemon ~socket () in
  submit ~resume:true ~addr:(Serve.Conn.Unix_path socket) ~journal:j_kill ();
  check_int "resume daemon exits cleanly" 0 (Domain.join daemon);
  Alcotest.(check string) "resumed journal untouched" oracle
    (read_file j_kill);

  List.iter cleanup [ j_one; j_kill ];
  List.iter cleanup_telemetry [ teldir; teldir_kill ]

let await_tcp_addr port =
  let rec go n =
    if Atomic.get port = 0 then
      if n > 200 then Alcotest.fail "daemon never reported its TCP port"
      else begin
        Unix.sleepf 0.05;
        go (n + 1)
      end
  in
  go 0;
  Serve.Conn.Tcp ("127.0.0.1", Atomic.get port)

let test_tcp_topology () =
  let oracle = Lazy.force oracle in

  (* (a) TCP loopback, one worker: same bytes as the Unix-socket and
     in-process runs.  Port 0 — the kernel picks, the daemon reports. *)
  let j_tcp = temp_path "tcp" ".jsonl" in
  let port = Atomic.make 0 in
  let daemon =
    spawn_daemon ~tcp:("127.0.0.1", 0)
      ~on_tcp_port:(fun p -> Atomic.set port p)
      ()
  in
  let addr = await_tcp_addr port in
  let worker = spawn_worker ~addr () in
  submit ~addr ~journal:j_tcp ();
  check_int "tcp daemon exits cleanly" 0 (Domain.join daemon);
  check_int "tcp worker exits cleanly" 0 (Domain.join worker);
  Alcotest.(check string) "tcp journal = in-process journal" oracle
    (read_file j_tcp);

  (* (b) TCP with a kill mid-lease, same sequencing as the Unix-socket
     leg. *)
  let j_tcp_kill = temp_path "tcpkill" ".jsonl" in
  let teldir = temp_dir "tel_tcpkill" in
  let port = Atomic.make 0 in
  let daemon =
    spawn_daemon ~tcp:("127.0.0.1", 0)
      ~on_tcp_port:(fun p -> Atomic.set port p)
      ~telemetry:teldir ()
  in
  let addr = await_tcp_addr port in
  let faulty =
    spawn_worker ~addr
      ~fault:(Campaign.Faultplan.Raising_worker { task = 0; failures = 1 })
      ()
  in
  let client =
    Domain.spawn (fun () ->
        match Serve.Client.submit ~addr ~journal:j_tcp_kill tiny_spec with
        | Ok _ -> 0
        | Error _ | (exception _) -> 4)
  in
  check_int "faulty tcp worker died mid-lease" 70 (Domain.join faulty);
  let healthy = spawn_worker ~addr () in
  check_int "tcp client saw Done" 0 (Domain.join client);
  check_int "tcp daemon exits cleanly" 0 (Domain.join daemon);
  check_int "healthy tcp worker exits cleanly" 0 (Domain.join healthy);
  Alcotest.(check string) "tcp kill-mid-lease journal = in-process journal"
    oracle (read_file j_tcp_kill);
  check_requeue_granted teldir;
  List.iter cleanup [ j_tcp; j_tcp_kill ];
  cleanup_telemetry teldir

let test_wedged_peer () =
  (* A worker that takes a lease and then stops reading entirely.  The
     lease timeout is a deliberately absurd 120 s: if the campaign still
     completes promptly, the recovery was the heartbeat (probe at 0.5 s,
     drop after 1.5 s of silence), not lease expiry — and the wedged
     peer never blocked the select loop for the healthy worker or the
     client. *)
  let oracle = Lazy.force oracle in
  let socket = temp_path "wedge" ".sock" in
  let j = temp_path "wedge" ".jsonl" in
  let teldir = Filename.temp_file "nakamoto_wedge_tel" "" in
  Sys.remove teldir;
  let daemon =
    spawn_daemon ~socket ~telemetry:teldir ~lease_timeout:120.
      ~heartbeat_interval:0.5 ~heartbeat_timeout:1.5 ()
  in
  let addr = Serve.Conn.Unix_path socket in
  let started = Unix.gettimeofday () in
  let client =
    Domain.spawn (fun () ->
        match Serve.Client.submit ~addr ~journal:j tiny_spec with
        | Ok _ -> 0
        | Error _ | (exception _) -> 4)
  in
  let wedged_fd, wedged_ch = peer_conn ~addr () in
  let _grant = obtain_grant wedged_ch in
  (* From here the wedged peer neither reads nor writes. *)
  let healthy = spawn_worker ~addr () in
  check_int "client saw Done despite the wedged peer" 0 (Domain.join client);
  let elapsed = Unix.gettimeofday () -. started in
  check_true "recovery came from the heartbeat, not the 120 s lease timeout"
    (elapsed < 60.);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "healthy worker exits cleanly" 0 (Domain.join healthy);
  (try Unix.close wedged_fd with Unix.Unix_error _ -> ());
  Alcotest.(check string) "wedged-peer journal = in-process journal" oracle
    (read_file j);
  let prom = read_file (Filename.concat teldir "telemetry.prom") in
  check_true "the drop is accounted as a heartbeat drop"
    (contains_substring ~affix:"serve_heartbeat_drops_total 1" prom);
  List.iter cleanup
    [
      j;
      Filename.concat teldir "telemetry.prom";
      Filename.concat teldir "telemetry.jsonl";
    ];
  (try Unix.rmdir teldir with Unix.Unix_error _ -> ())

let test_late_result () =
  (* A worker holds its lease past expiry (answering heartbeats, so it
     is alive — just slow), then returns the shard.  Nobody else has
     re-leased it, so the late copy must be accepted, not discarded:
     shards are pure functions of (seed, cell, trial). *)
  let oracle = Lazy.force oracle in
  let socket = temp_path "late" ".sock" in
  let j = temp_path "late" ".jsonl" in
  let teldir = Filename.temp_file "nakamoto_late_tel" "" in
  Sys.remove teldir;
  let daemon = spawn_daemon ~socket ~telemetry:teldir ~lease_timeout:1. () in
  let addr = Serve.Conn.Unix_path socket in
  let client =
    Domain.spawn (fun () ->
        match Serve.Client.submit ~addr ~journal:j tiny_spec with
        | Ok _ -> 0
        | Error _ | (exception _) -> 4)
  in
  let fd, ch = peer_conn ~addr () in
  let { Msg.lease_id; shard }, spec = obtain_grant ch in
  idle_answering_pings ch ~seconds:2.5;
  (* The lease is long expired; compute and answer anyway. *)
  let cells = Spec.cells spec in
  let agg = Campaign.Campaign.run_shard spec cells shard in
  Msg.send ch
    (Msg.Cell_result
       {
         Msg.res_lease = lease_id;
         res_shard = shard.Campaign.Shard.id;
         res_aggregate = Aggregate.snapshot agg;
         res_telemetry = [];
       });
  let healthy = spawn_worker ~addr () in
  check_int "client saw Done" 0 (Domain.join client);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "healthy worker exits cleanly" 0 (Domain.join healthy);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check string) "late-result journal = in-process journal" oracle
    (read_file j);
  let prom = read_file (Filename.concat teldir "telemetry.prom") in
  check_true "the late result was accepted, not dropped as stale"
    (contains_substring ~affix:"serve_late_results_total 1" prom);
  check_true "at least one lease expired on the way"
    (contains_substring ~affix:"serve_leases_expired_total" prom);
  List.iter cleanup
    [
      j;
      Filename.concat teldir "telemetry.prom";
      Filename.concat teldir "telemetry.jsonl";
    ];
  (try Unix.rmdir teldir with Unix.Unix_error _ -> ())

let test_protocol_edges () =
  let socket = temp_path "edges" ".sock" in
  let daemon = spawn_daemon ~socket () in
  let addr = Serve.Conn.Unix_path socket in

  (* Version mismatch, from a newer peer and from a protocol-2 peer
     (whose Hello_ack had no telemetry flag): typed Error frame, then
     the server hangs up. *)
  List.iter
    (fun version ->
      let fd = Serve.Conn.connect ~addr ~timeout:10. in
      let ch = Frame.Channel.of_fd fd in
      Msg.send ch (Msg.Hello { version; role = Msg.Client });
      (match Msg.recv ~timeout:10. ch with
      | `Msg (Msg.Error e) ->
        check_true "names both versions"
          (contains_substring ~affix:(string_of_int version) e
          && contains_substring ~affix:"version" e)
      | _ -> Alcotest.fail "version mismatch must get a typed Error frame");
      (match Msg.recv ~timeout:10. ch with
      | `Eof -> ()
      | _ -> Alcotest.fail "server must hang up after a version mismatch");
      Unix.close fd)
    [ 99; 2 ];

  (* Unknown tag after a clean handshake: typed Error, connection
     survives and still answers queries. *)
  let fd = Serve.Conn.connect ~addr ~timeout:10. in
  let ch = Frame.Channel.of_fd fd in
  (match Serve.Conn.handshake ~role:Msg.Client ch with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "handshake: %s" e);
  Frame.Channel.write ch ~tag:200 ~payload:"junk";
  (match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Error e) ->
    check_true "unknown tag named"
      (contains_substring ~affix:"unknown message tag" e)
  | _ -> Alcotest.fail "unknown tag must get a typed Error reply");
  Msg.send ch
    (Msg.Query_assess { Msg.q_nu = 0.25; q_c = 10.; q_n = 1e5; q_delta = 1e13 });
  (match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Assess_reply a) ->
    Alcotest.(check string) "still serving after the bad frame" "SAFE"
      a.Msg.a_zone
  | _ -> Alcotest.fail "connection must survive an unknown tag");
  Unix.close fd;

  (* The public assess client. *)
  (match Serve.Client.assess ~addr ~nu:0.4 ~c:0.2 ~n:1e5 ~delta:1e13 () with
  | Ok a ->
    Alcotest.(check string) "deep in attack territory" "BROKEN" a.Msg.a_zone;
    check_true "rendered verdict included" (String.length a.Msg.a_rendered > 0)
  | Error e -> Alcotest.failf "assess: %s" e);

  (* Drain the daemon with a real campaign (it serves exactly one, then
     returns) — the bad frames above must not have poisoned it. *)
  let journal = temp_path "edges" ".jsonl" in
  let worker = spawn_worker ~addr () in
  submit ~addr ~journal ();
  check_int "daemon exits cleanly after the abuse" 0 (Domain.join daemon);
  check_int "worker exits cleanly" 0 (Domain.join worker);
  cleanup journal;
  cleanup socket

(* A journal path the daemon cannot open, or a spec it refuses, is the
   submitter's problem, not the daemon's: a typed Error to that client,
   and the next submission on the same daemon still runs to the oracle
   journal. *)
let test_bad_journal_path () =
  let socket = temp_path "badjournal" ".sock" in
  let addr = Serve.Conn.Unix_path socket in
  let daemon = spawn_daemon ~socket () in
  let worker = spawn_worker ~addr () in
  (match
     Serve.Client.submit ~addr ~journal:"/nonexistent_dir/j.jsonl" tiny_spec
   with
  | Ok _ -> Alcotest.fail "an unopenable journal must be refused"
  | Error e ->
    check_true "the refusal names the path"
      (contains_substring ~affix:"/nonexistent_dir/j.jsonl" e));
  (* A spec with a cell its strategy cannot fit (Balance's boundary 6
     against the 6 honest miners of n = 8 at nu = 0.3) is refused the
     same way, before any worker leases a shard of it. *)
  let unfit_journal = temp_path "unfit" ".jsonl" in
  (match
     Serve.Client.submit ~addr ~journal:unfit_journal
       {
         tiny_spec with
         Spec.strategy = Nakamoto_sim.Adversary.Balance { group_boundary = 6 };
       }
   with
  | Ok _ -> Alcotest.fail "a cell the strategy cannot fit must be refused"
  | Error e ->
    check_true ("the refusal names the boundary: " ^ e)
      (contains_substring ~affix:"group_boundary" e));
  check_false "no journal opened" (Sys.file_exists unfit_journal);
  let journal = temp_path "badjournal" ".jsonl" in
  submit ~addr ~journal ();
  Alcotest.(check string) "the daemon kept serving" (Lazy.force oracle)
    (read_file journal);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "worker exits cleanly" 0 (Domain.join worker);
  cleanup journal;
  cleanup socket

(* An assess RPC the library rejects deep in the assessment must cost
   that query a typed Error at worst, never the daemon: at nu = 1e-306
   the adversary rate p nu n once underflowed to 0, the depth search
   raised, and the exception escaped the select loop.  A valid query and
   a whole campaign must still be served afterwards. *)
let test_rejected_assess_keeps_serving () =
  let socket = temp_path "assess" ".sock" in
  let addr = Serve.Conn.Unix_path socket in
  let daemon = spawn_daemon ~socket () in
  let fd, ch = peer_conn ~role:Msg.Client ~addr () in
  Msg.send ch
    (Msg.Query_assess { Msg.q_nu = 1e-306; q_c = 3.; q_n = 1e5; q_delta = 1e13 });
  (match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Assess_reply _ | Msg.Error _) -> ()
  | `Eof -> Alcotest.fail "the daemon hung up on an assess query"
  | _ -> Alcotest.fail "no Assess_reply or typed Error for the query");
  Unix.close fd;
  (match Serve.Client.assess ~addr ~nu:0.25 ~c:3. ~n:1e5 ~delta:1e13 () with
  | Ok a -> Alcotest.(check string) "valid query answered" "SAFE" a.Msg.a_zone
  | Error e -> Alcotest.failf "valid assess after the rejected one: %s" e);
  let journal = temp_path "assess" ".jsonl" in
  let worker = spawn_worker ~addr () in
  submit ~addr ~journal ();
  Alcotest.(check string) "the daemon kept serving" (Lazy.force oracle)
    (read_file journal);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "worker exits cleanly" 0 (Domain.join worker);
  cleanup journal;
  cleanup socket

(* A fake coordinator: accept one real [Worker.run], ack its Hello with
   [telemetry], await its lease request and grant it [shard] of [spec].
   [k] gets the channel; the worker must exit cleanly afterwards.  The
   worker asks for its next lease before computing the granted one, so
   a [k] that wants the result reads it with [granted_result], which
   leaves that prefetched request unanswered. *)
let with_fake_coordinator ~tag ~telemetry ~spec ~shard k =
  let socket = temp_path tag ".sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let worker = spawn_worker ~addr:(Serve.Conn.Unix_path socket) () in
  let fd, _ = Unix.accept listener in
  let ch = Frame.Channel.of_fd fd in
  (match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Hello _) ->
    Msg.send ch
      (Msg.Hello_ack { version = Frame.protocol_version; telemetry })
  | _ -> Alcotest.fail "expected the worker's Hello");
  (match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Lease_request _) -> ()
  | _ -> Alcotest.fail "expected a lease request");
  Msg.send ch (Msg.Lease_grant { grants = [ { Msg.lease_id = 0; shard } ]; spec });
  let r = k ch in
  Unix.close fd;
  check_int "worker exits cleanly" 0 (Domain.join worker);
  Unix.close listener;
  cleanup socket;
  r

let rec granted_result ch =
  match Msg.recv ~timeout:30. ch with
  | `Msg (Msg.Lease_request _) -> granted_result ch
  | `Msg (Msg.Cell_result r) -> r
  | _ -> Alcotest.fail "expected the shard's result"

let first_shard =
  (Campaign.Shard.plan ~cells:1 ~trials_per_cell:1 ~shard_size:1
     ~skip:(fun _ -> false)).(0)

(* A coordinator that shuts down while its worker computes a lease: the
   worker's result write then fails (EPIPE), which is the same natural
   exit as an EOF, not a crash.  A daemon finishing its last campaign
   races its workers' next writes exactly this way. *)
let test_coordinator_gone_mid_lease () =
  (* Long enough to compute that the close lands first. *)
  let spec = { tiny_spec with Spec.rounds = 20_000 } in
  with_fake_coordinator ~tag:"gone" ~telemetry:false ~spec ~shard:first_shard
    ignore

(* The ack's telemetry flag decides what a worker ships: nothing for a
   daemon that collects none, the shard's span and [sim_*] entries for
   one that does — and the aggregate either way is the in-process one. *)
let test_worker_telemetry_follows_ack () =
  let result telemetry =
    with_fake_coordinator ~tag:"ack" ~telemetry ~spec:tiny_spec
      ~shard:first_shard granted_result
  in
  let off = result false and on = result true in
  check_true "told no: res_telemetry = []" (off.Msg.res_telemetry = []);
  let names =
    List.map
      (fun ((k : Nakamoto_telemetry.Registry.Snapshot.key), _) -> k)
      on.Msg.res_telemetry
  in
  check_true "told yes: campaign_shard_seconds{domain=<pid>}"
    (List.mem
       {
         Nakamoto_telemetry.Registry.Snapshot.name = "campaign_shard_seconds";
         labels = [ ("domain", string_of_int (Unix.getpid ())) ];
       }
       names);
  check_true "told yes: the executor's sim_* entries"
    (List.exists
       (fun (k : Nakamoto_telemetry.Registry.Snapshot.key) ->
         String.starts_with ~prefix:"sim_" k.name)
       names);
  check_true "told yes: nothing else"
    (List.for_all
       (fun (k : Nakamoto_telemetry.Registry.Snapshot.key) ->
         k.name = "campaign_shard_seconds"
         || String.starts_with ~prefix:"sim_" k.name)
       names);
  let inproc =
    Aggregate.snapshot
      (Campaign.Campaign.run_shard tiny_spec (Spec.cells tiny_spec)
         first_shard)
  in
  check_true "same aggregate either way"
    (off.Msg.res_aggregate = on.Msg.res_aggregate);
  check_true "= the in-process aggregate" (off.Msg.res_aggregate = inproc)

(* A worker keeps one lease request in flight: on a grant it asks for
   the next batch before it computes this one, so the request reaches
   the coordinator ahead of the granted shard's result. *)
let test_worker_prefetches_next_lease () =
  with_fake_coordinator ~tag:"prefetch" ~telemetry:false ~spec:tiny_spec
    ~shard:first_shard (fun ch ->
      (match Msg.recv ~timeout:30. ch with
      | `Msg (Msg.Lease_request { max }) ->
        check_int "the prefetch asks for one batch" 1 max
      | `Msg (Msg.Cell_result _) ->
        Alcotest.fail "the result came before the next lease request"
      | _ -> Alcotest.fail "expected the prefetched lease request");
      let r = granted_result ch in
      check_int "then the granted shard's result" first_shard.Campaign.Shard.id
        r.Msg.res_shard)

(* The grid of [make serve-smoke], whose journal is the committed
   [golden/campaign_smoke.jsonl] (compiled into the test binary as
   [Golden_journal.campaign_smoke]). *)
let smoke_spec =
  {
    Spec.default with
    Spec.ps = [ 0.01 ];
    ns = [ 40 ];
    deltas = [ 3 ];
    nus = [ 0.15; 0.4 ];
    trials_per_cell = 4;
    rounds = 400;
    seed = 7L;
  }

let rec await_reply ch =
  match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Ping { nonce }) ->
    Msg.send ch (Msg.Pong { nonce });
    await_reply ch
  | other -> other

(* A result's telemetry is input from outside the daemon: even a daemon
   that collects none must validate it.  A worker that returns a shard
   with a duplicate telemetry key gets a typed Error and a hang-up; the
   shard goes back to the queue and the journal still matches the
   golden. *)
let test_malformed_telemetry_rejected () =
  let golden = Golden_journal.campaign_smoke in
  let socket = temp_path "malformed" ".sock" in
  let j = temp_path "malformed" ".jsonl" in
  let addr = Serve.Conn.Unix_path socket in
  let daemon = spawn_daemon ~socket () in
  let client =
    Domain.spawn (fun () ->
        match Serve.Client.submit ~addr ~journal:j smoke_spec with
        | Ok _ -> 0
        | Error _ | (exception _) -> 4)
  in
  let fd, ch = peer_conn ~addr () in
  let { Msg.lease_id; shard }, spec = obtain_grant ch in
  let reg = Nakamoto_telemetry.Registry.create () in
  let agg =
    Campaign.Campaign.run_shard ~telemetry:reg spec (Spec.cells spec) shard
  in
  let entries =
    Nakamoto_telemetry.Registry.(Snapshot.entries (snapshot reg))
  in
  Msg.send ch
    (Msg.Cell_result
       {
         Msg.res_lease = lease_id;
         res_shard = shard.Campaign.Shard.id;
         res_aggregate = Aggregate.snapshot agg;
         res_telemetry = List.hd entries :: entries;
       });
  (match await_reply ch with
  | `Msg (Msg.Error e) ->
    check_true "a typed malformed-result refusal"
      (String.starts_with ~prefix:"malformed result: " e)
  | _ -> Alcotest.fail "a malformed result must get a typed Error frame");
  (match await_reply ch with
  | `Eof -> ()
  | _ -> Alcotest.fail "the daemon must hang up on a malformed result");
  Unix.close fd;
  let fd, ch = peer_conn ~addr () in
  let regrant, _ = obtain_grant ch in
  check_int "the rejected shard is leased again" shard.Campaign.Shard.id
    regrant.Msg.shard.Campaign.Shard.id;
  Unix.close fd;
  let healthy = spawn_worker ~addr () in
  check_int "client saw Done" 0 (Domain.join client);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "healthy worker exits cleanly" 0 (Domain.join healthy);
  Alcotest.(check string) "journal = golden/campaign_smoke.jsonl" golden
    (read_file j);
  cleanup j;
  cleanup socket

let suite =
  [
    case "journal is byte-identical across topologies (incl. worker kill)"
      test_topology_independence;
    case "tcp loopback reproduces the journal byte-for-byte"
      test_tcp_topology;
    case "a wedged peer neither blocks the loop nor keeps its lease"
      test_wedged_peer;
    case "a late result for a still-pending shard is accepted"
      test_late_result;
    case "version mismatch and unknown tags get typed Error frames"
      test_protocol_edges;
    case "an unopenable journal path is refused and the daemon keeps serving"
      test_bad_journal_path;
    case "an assess RPC the library rejects leaves the daemon serving"
      test_rejected_assess_keeps_serving;
    case "a worker whose coordinator closes mid-lease exits cleanly"
      test_coordinator_gone_mid_lease;
    case "a worker ships shard telemetry only when the ack asks for it"
      test_worker_telemetry_follows_ack;
    case "a malformed result telemetry is refused and its shard requeued"
      test_malformed_telemetry_rejected;
    case "a worker requests its next lease before computing this one"
      test_worker_prefetches_next_lease;
  ]
