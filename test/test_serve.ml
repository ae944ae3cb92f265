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
let spawn_daemon ?socket ?tcp ?on_tcp_port ?telemetry ?surface
    ?(lease_timeout = 5.) ?heartbeat_interval ?heartbeat_timeout () =
  Domain.spawn (fun () ->
      try
        ignore
          (Serve.Coordinator.serve ?socket ?tcp ?on_tcp_port ~max_campaigns:1
             ~lease_timeout ?heartbeat_interval ?heartbeat_timeout ?telemetry
             ?surface ~log:silent ());
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

(* A hand-driven worker connection, for the tests that need a peer the
   real [Worker.run] would never be: one that wedges, or one that
   answers after its lease expired. *)
let worker_conn ~addr =
  let fd = Serve.Conn.connect ~addr ~timeout:10. in
  let ch = Frame.Channel.of_fd fd in
  (match Serve.Conn.handshake ~role:Msg.Worker ch with
  | Ok () -> ()
  | Error e -> Alcotest.failf "worker handshake: %s" e);
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
  let wedged_fd, wedged_ch = worker_conn ~addr in
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
  let fd, ch = worker_conn ~addr in
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

  (* Version mismatch: typed Error frame, then the server hangs up. *)
  let fd = Serve.Conn.connect ~addr ~timeout:10. in
  let ch = Frame.Channel.of_fd fd in
  Msg.send ch (Msg.Hello { version = 99; role = Msg.Client });
  (match Msg.recv ~timeout:10. ch with
  | `Msg (Msg.Error e) ->
    check_true "names both versions"
      (contains_substring ~affix:"99" e
      && contains_substring ~affix:"version" e)
  | _ -> Alcotest.fail "version mismatch must get a typed Error frame");
  (match Msg.recv ~timeout:10. ch with
  | `Eof -> ()
  | _ -> Alcotest.fail "server must hang up after a version mismatch");
  Unix.close fd;

  (* Unknown tag after a clean handshake: typed Error, connection
     survives and still answers queries. *)
  let fd = Serve.Conn.connect ~addr ~timeout:10. in
  let ch = Frame.Channel.of_fd fd in
  (match Serve.Conn.handshake ~role:Msg.Client ch with
  | Ok () -> ()
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

(* A journal path the daemon cannot open is the submitter's problem, not
   the daemon's: a typed Error to that client, and the next submission
   on the same daemon still runs to the oracle journal. *)
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
  let journal = temp_path "badjournal" ".jsonl" in
  submit ~addr ~journal ();
  Alcotest.(check string) "the daemon kept serving" (Lazy.force oracle)
    (read_file journal);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "worker exits cleanly" 0 (Domain.join worker);
  cleanup journal;
  cleanup socket

(* Surface-backed daemon: assess RPCs inside a certified cell are served
   from the table (the rendered verdict says so), everything else still
   routes through the exact solver — and the campaign path is
   untouched. *)
let test_surface_backed_assess () =
  let module Surface = Nakamoto_surface in
  let axis lo hi scale =
    Surface.Grid.axis ~lo ~hi ~count:2 ~scale
  in
  let table =
    Surface.Table.build
      (Surface.Grid.create
         ~p:(axis 1.7e-6 1.8e-6 Surface.Grid.Log)
         ~n:(axis 115. 125. Surface.Grid.Log)
         ~delta:(axis 1870. 1930. Surface.Grid.Log)
         ~nu:(axis 0.0136 0.0144 Surface.Grid.Linear))
  in
  let _, _, full = Surface.Table.conclusive_counts table in
  check_int "the cell certifies" 1 full;
  let socket = temp_path "surface" ".sock" in
  let addr = Serve.Conn.Unix_path socket in
  let daemon = spawn_daemon ~socket ~surface:table () in
  (* c = 1/(p n Delta) at the cell's interior point. *)
  let c = 1. /. (1.75e-6 *. 120. *. 1900.) in
  (match Serve.Client.assess ~addr ~nu:0.014 ~c ~n:120. ~delta:1900. () with
  | Ok a ->
    Alcotest.(check string) "cached zone" "SAFE" a.Msg.a_zone;
    check_true "served from the table"
      (contains_substring ~affix:"(cached)" a.Msg.a_rendered);
    check_true "certified depth" (a.Msg.a_confirmations = Some 3)
  | Error e -> Alcotest.failf "surface assess: %s" e);
  (match Serve.Client.assess ~addr ~nu:0.4 ~c:0.2 ~n:1e5 ~delta:1e13 () with
  | Ok a ->
    Alcotest.(check string) "fallback zone" "BROKEN" a.Msg.a_zone;
    check_false "outside the box is not cached"
      (contains_substring ~affix:"(cached)" a.Msg.a_rendered)
  | Error e -> Alcotest.failf "fallback assess: %s" e);
  let journal = temp_path "surface" ".jsonl" in
  let worker = spawn_worker ~addr () in
  submit ~addr ~journal ();
  Alcotest.(check string)
    "campaign journal unaffected by the surface" (Lazy.force oracle)
    (read_file journal);
  check_int "daemon exits cleanly" 0 (Domain.join daemon);
  check_int "worker exits cleanly" 0 (Domain.join worker);
  cleanup journal;
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
    case "surface-backed daemon serves cached verdicts"
      test_surface_backed_assess;
  ]
