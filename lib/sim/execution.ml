module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree
module Network = Nakamoto_net.Network
module Rng = Nakamoto_prob.Rng
module Binomial = Nakamoto_prob.Binomial
module Pow = Nakamoto_chain.Pow

module Tel = Nakamoto_telemetry

let log_src = Logs.Src.create "nakamoto.sim" ~doc:"Delta-delay protocol execution"

module Log = (val Logs.src_log log_src)

type snapshot = { round : int; tips : Block.t array }

type result = {
  config : Config.t;
  snapshots : snapshot list;
  god_view : Block_tree.t;
  final_tips : Block.t array;
  convergence_opportunities : int;
  adversary_blocks : int;
  honest_blocks : int;
  h_rounds : int;
  h1_rounds : int;
  max_reorg_depth : int;
  adversary_releases : int;
  messages_sent : int;
  orphans_remaining : int;
  processed_rounds : int;
}

type round_report = {
  round_number : int;
  honest_mined : int;
  adversary_successes : int;
  releases_issued : int;
  best_height : int;
  reorg_depth : int;
}

(* ------------------------------------------------------------------ *)
(* Telemetry: every instrument is resolved once before the round loop
   and threaded through as an [instruments option].  The disabled handle
   is [None]; the hot path then pays one pattern match per phase and
   nothing else — no clock reads, no allocation — which is what keeps
   telemetry-off throughput within noise of the uninstrumented build.
   Telemetry never draws from any RNG stream, so results are bit-
   identical with the handle on or off (pinned by the differential
   test).                                                              *)
(* ------------------------------------------------------------------ *)

type instruments = {
  i_rounds : Tel.Counter.t;
  i_honest : Tel.Counter.t;
  i_adversary : Tel.Counter.t;
  i_releases : Tel.Counter.t;
  i_height_growth : Tel.Counter.t;
  i_reorg_rounds : Tel.Counter.t;
  i_release_burst : Tel.Histogram.t;  (** blocks per adversarial release *)
  i_reorg_depth : Tel.Histogram.t;  (** fixed-boundary, per reorging round *)
  i_interarrival : Tel.Histogram.t;  (** rounds between honest-block rounds *)
  i_conv_gap : Tel.Histogram.t;  (** rounds between convergence opportunities *)
  sp_delivery : Tel.Span.t;
  sp_mining : Tel.Span.t;
  sp_adversary : Tel.Span.t;
  mutable last_block_round : int;
  mutable last_conv_count : int;
  mutable last_conv_round : int;
  mutable last_best_height : int;
  mutable phase_started : float;
}

let reorg_depth_bounds =
  [| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32.; 48.; 64. |]

let make_instruments reg =
  {
    i_rounds = Tel.Registry.counter reg "sim_rounds_total";
    i_honest = Tel.Registry.counter reg "sim_honest_blocks_total";
    i_adversary = Tel.Registry.counter reg "sim_adversary_blocks_total";
    i_releases = Tel.Registry.counter reg "sim_adversary_releases_total";
    i_height_growth = Tel.Registry.counter reg "sim_best_height_growth_total";
    i_reorg_rounds = Tel.Registry.counter reg "sim_reorg_rounds_total";
    i_release_burst = Tel.Registry.log2_histogram reg "sim_release_burst_blocks";
    i_reorg_depth =
      Tel.Registry.fixed_histogram reg ~bounds:reorg_depth_bounds
        "sim_reorg_depth";
    i_interarrival =
      Tel.Registry.log2_histogram reg "sim_block_interarrival_rounds";
    i_conv_gap = Tel.Registry.log2_histogram reg "sim_convergence_gap_rounds";
    sp_delivery = Tel.Registry.span reg "sim_phase_delivery_seconds";
    sp_mining = Tel.Registry.span reg "sim_phase_mining_seconds";
    sp_adversary = Tel.Registry.span reg "sim_phase_adversary_seconds";
    last_block_round = 0;
    last_conv_count = 0;
    last_conv_round = 0;
    last_best_height = 0;
    phase_started = 0.;
  }

let phase_start instr span =
  match instr with
  | None -> ()
  | Some i -> i.phase_started <- Tel.Span.start (span i)

let phase_stop instr span =
  match instr with
  | None -> ()
  | Some i -> Tel.Span.stop (span i) i.phase_started

(* A convergence opportunity completed: record the gap since the previous
   one.  [conv_round] is the true completion round,
   [Pattern.last_count_round]: on a per-round step that is the round
   being observed whenever a completion happens, but Skip can complete an
   opportunity strictly inside a fast-forwarded span. *)
let note_convergence i ~conv_count ~conv_round =
  if conv_count > i.last_conv_count then begin
    if i.last_conv_round > 0 then
      Tel.Histogram.observe i.i_conv_gap
        (float_of_int (conv_round - i.last_conv_round));
    i.last_conv_count <- conv_count;
    i.last_conv_round <- conv_round
  end

(* End-of-round reporting shared by the executors: the [on_round] hook and
   the telemetry tail.  [best_height] is only computed when one of them
   listens; [releases] is the round's release list (burst sizes), the
   rest are this round's already computed statistics. *)
let observe_round ?on_round instr ~round ~h ~successes ~releases ~round_reorg
    ~best_height ~conv_count ~conv_round =
  if Option.is_some on_round || Option.is_some instr then begin
    let best_height = best_height () in
    (match on_round with
    | None -> ()
    | Some report ->
      report
        {
          round_number = round;
          honest_mined = h;
          adversary_successes = successes;
          releases_issued = List.length releases;
          best_height;
          reorg_depth = round_reorg;
        });
    match instr with
    | None -> ()
    | Some i ->
      Tel.Counter.incr i.i_rounds;
      Tel.Counter.add i.i_honest h;
      Tel.Counter.add i.i_adversary successes;
      Tel.Counter.add i.i_releases (List.length releases);
      List.iter
        (fun { Adversary.blocks; _ } ->
          Tel.Histogram.observe i.i_release_burst
            (float_of_int (List.length blocks)))
        releases;
      if round_reorg > 0 then begin
        Tel.Counter.incr i.i_reorg_rounds;
        Tel.Histogram.observe i.i_reorg_depth (float_of_int round_reorg)
      end;
      if h > 0 then begin
        if i.last_block_round > 0 then
          Tel.Histogram.observe i.i_interarrival
            (float_of_int (round - i.last_block_round));
        i.last_block_round <- round
      end;
      note_convergence i ~conv_count ~conv_round;
      if best_height > i.last_best_height then begin
        Tel.Counter.add i.i_height_growth (best_height - i.last_best_height);
        i.last_best_height <- best_height
      end
  end

(* Hand [blocks] to [miner] and measure how deep it rolled back its chain:
   [max_reorg] keeps the run's deepest rollback, [round_reorg] (when given)
   the current round's. *)
let receive_tracked ~god ~max_reorg miner blocks ~round ~round_reorg =
  if blocks <> [] then begin
    let old_tip = Miner.best_tip miner in
    Miner.receive miner blocks;
    let new_tip = Miner.best_tip miner in
    if not (Block.equal old_tip new_tip) then begin
      let meet = Block_tree.common_prefix_height god old_tip new_tip in
      let rolled_back = old_tip.Block.height - meet in
      (match round_reorg with
      | Some cell -> if rolled_back > !cell then cell := rolled_back
      | None -> ());
      if rolled_back > 2 then
        Log.debug (fun m ->
            m "round %d: miner %d rolled back %d blocks (%d -> %d)" round
              (Miner.id miner) rolled_back old_tip.Block.height
              new_tip.Block.height);
      if rolled_back > !max_reorg then max_reorg := rolled_back
    end
  end

let adversary_acts adversary ~round ~successes =
  let releases = Adversary.act adversary ~round ~successes in
  if releases <> [] then
    Log.debug (fun m ->
        m "round %d: adversary issued %d release(s) (%d successes this round)"
          round (List.length releases) successes);
  releases

let blocks_of messages =
  List.concat_map (fun (m : Network.message) -> m.blocks) messages

(* ------------------------------------------------------------------ *)
(* Exact mode: one H-query per honest miner per round, nu n sequential
   adversary queries, every message enqueued per recipient.  This path is
   bit-for-bit the historical executor.                                 *)
(* ------------------------------------------------------------------ *)

let run_exact ?on_round ~instr config =
  let honest_n = Config.honest_count config in
  let adv_n = Config.adversary_count config in
  let rng = Rng.create ~seed:config.seed in
  let oracle = Pow.create ~seed:(Rng.bits64 rng) ~p:config.p in
  let net_rng = Rng.split rng in
  let adversary = Adversary.create ~strategy:config.strategy ~honest_count:honest_n in
  let network =
    Network.create ~delta:config.delta ~players:honest_n
      ~policy:(Config.delay_policy config) ~rng:net_rng
  in
  let miners =
    Array.init honest_n (fun id -> Miner.create ~tie_break:config.tie_break ~id ())
  in
  let pattern = Pattern.create ~delta:config.delta in
  let god = Adversary.view adversary in
  let snapshots = ref [] in
  let honest_blocks = ref 0 in
  let adversary_blocks = ref 0 in
  let h_rounds = ref 0 in
  let h1_rounds = ref 0 in
  let max_reorg = ref 0 in
  let take_snapshot round =
    snapshots :=
      { round; tips = Array.map Miner.best_tip miners } :: !snapshots
  in
  let deliver_round round ~round_reorg =
    Array.iter
      (fun miner ->
        let inbox = Network.deliver network ~recipient:(Miner.id miner) ~round in
        receive_tracked ~god ~max_reorg miner (blocks_of inbox) ~round
          ~round_reorg)
      miners
  in
  let best_height () =
    Array.fold_left (fun acc m -> max acc (Miner.chain_length m)) 0 miners
  in
  for round = 1 to config.rounds do
    let round_reorg = ref 0 in
    (* Phase 1: delivery.  Record reorg depth when a miner abandons part of
       its previously-best chain. *)
    phase_start instr (fun i -> i.sp_delivery);
    deliver_round round ~round_reorg:(Some round_reorg);
    phase_stop instr (fun i -> i.sp_delivery);
    (* Phase 2: honest mining — one parallel H-query each (Section III's
       oracle: the query digests the miner's current parent). *)
    phase_start instr (fun i -> i.sp_mining);
    let mined_this_round = ref [] in
    Array.iter
      (fun miner ->
        let parent = (Miner.best_tip miner).Block.hash in
        match
          Pow.query oracle ~parent ~miner:(Miner.id miner) ~round ~query_index:0
        with
        | None -> ()
        | Some _proof ->
          let block = Miner.extend_tip miner ~round ~nonce:(Miner.id miner) in
          mined_this_round := block :: !mined_this_round;
          Network.broadcast network
            { Network.sender = Miner.id miner; sent_round = round; blocks = [ block ] })
      miners;
    let h = List.length !mined_this_round in
    phase_stop instr (fun i -> i.sp_mining);
    honest_blocks := !honest_blocks + h;
    if h > 0 then incr h_rounds;
    if h = 1 then incr h1_rounds;
    Pattern.observe pattern (Round_state.of_block_count h);
    Adversary.observe adversary !mined_this_round;
    (* Phase 3: the adversary's q = nu n sequential H-queries on its
       strategy-chosen tip, then releases. *)
    phase_start instr (fun i -> i.sp_adversary);
    let successes =
      Pow.successes oracle
        ~parent:(Adversary.private_tip adversary).Block.hash ~miner:(-1)
        ~round ~queries:adv_n
    in
    adversary_blocks := !adversary_blocks + successes;
    let releases = adversary_acts adversary ~round ~successes in
    List.iter
      (fun { Adversary.audience; delay; blocks } ->
        let send recipient =
          Network.send_direct network ~recipient ~delay
            { Network.sender = -1; sent_round = round; blocks }
        in
        match audience with
        | Adversary.All_honest ->
          for recipient = 0 to honest_n - 1 do
            send recipient
          done
        | Adversary.Only recipients -> List.iter send recipients)
      releases;
    phase_stop instr (fun i -> i.sp_adversary);
    observe_round ?on_round instr ~round ~h ~successes ~releases
      ~round_reorg:!round_reorg ~best_height
      ~conv_count:(Pattern.count pattern)
      ~conv_round:(Pattern.last_count_round pattern);
    if round mod config.snapshot_interval = 0 || round = config.rounds then
      take_snapshot round
  done;
  (* Quiesce: deliver the messages still in flight (at most delta rounds'
     worth).  Without this, an adversary that reorders heavily can leave a
     child block delivered but its parent still in transit at the cutoff,
     stranding orphans that the model says must connect. *)
  for round = config.rounds + 1 to config.rounds + config.delta do
    deliver_round round ~round_reorg:None
  done;
  {
    config;
    snapshots = List.rev !snapshots;
    god_view = god;
    final_tips = Array.map Miner.best_tip miners;
    convergence_opportunities = Pattern.count pattern;
    adversary_blocks = !adversary_blocks;
    honest_blocks = !honest_blocks;
    h_rounds = !h_rounds;
    h1_rounds = !h1_rounds;
    max_reorg_depth = !max_reorg;
    adversary_releases = Adversary.reorgs_caused adversary;
    messages_sent = Network.messages_sent network;
    orphans_remaining =
      Array.fold_left (fun acc m -> acc + Miner.orphan_count m) 0 miners;
    processed_rounds = config.rounds;
  }

(* ------------------------------------------------------------------ *)
(* The fast modes, Aggregate and Skip: one event-stepped body.

   Per simulated round the cost is O(blocks mined + messages due)
   instead of O(n):

   - A mining round's honest count comes from binom(mu n, p) (the law of
     mu n independent H-queries) and *which* miners won is a partial
     Fisher-Yates draw over the honest ids; the adversary's nu n
     sequential queries collapse to one binom(nu n, p) count (all
     Adversary.act consumes).  Round outcomes are distribution-identical
     to Exact, not bit-identical.
   - Broadcasts ride the network's shared Δ-ring lane (O(1) each); every
     miner whose view never diverged from that shared stream is one
     "crowd" view.  A miner is materialized (cloned from the crowd) the
     first time it wins a block or is targeted by a direct send, and from
     then on consumes the ring plus its own queue.  Untouched miners are
     exact replicas of the crowd, so snapshots and final tips fill their
     slots with the crowd tip and [orphans_remaining] counts the crowd
     once.  Once every miner is materialized (Balance's first release
     does it) the crowd retires from delivery, reorg and orphan
     accounting: it would otherwise receive ring blocks whose direct-sent
     parents it never saw and report phantom orphans no miner holds.
   - The loop steps from event to event.  The next simulated round is
     the earlier of the next mining round and the next due delivery
     (Network.next_due).  Because mining is i.i.d. per round, a drawn
     mining round stays valid across delivery-only rounds
     (memorylessness) and is redrawn only once consumed.  Releases need
     no event of their own: every strategy is event-driven
     (Adversary.advance_empty verifies that no release originates inside
     an empty span), so they surface at a simulated round.  An empty span
     is fast-forwarded in O(1): Pattern.observe_empty advances the
     convergence detector (reporting a mid-span completion at its true
     round), the adversary takes one verified no-op step, telemetry adds
     the span to its round counter, and snapshot-cadence rounds inside it
     reuse the previous snapshot's tips array.

   The mode supplies only the draws, as a [law]: the gap to the next
   mining round, its honest count and its adversary count.  Aggregate's
   gaps are all 0, so it simulates every round.  Skip's gap is
   Geometric(1 - q0) on {0, 1, ...} where q0 = (1-p)^(mu n + nu n) is the
   probability a round mines nothing on either side, and the mining
   round's counts follow the conditional law (H, A) | H + A > 0: with
   probability (1 - qh)/(1 - q0) a zero-truncated binom(mu n, p) honest
   count with an unconditional binom(nu n, p) adversary count, else an
   honest zero with a zero-truncated binom(nu n, p).  Multiplying out
   recovers P(H = h) P(A = a) / (1 - q0), Aggregate's joint law
   conditioned on a non-empty round, and empty rounds carry no other
   randomness.  Skip is therefore distribution-identical to Aggregate,
   not bit-identical: it consumes the RNG per event rather than per
   round, and [on_round] fires only for simulated rounds.             *)
(* ------------------------------------------------------------------ *)

type law = {
  gap : unit -> int;  (** empty rounds before the next mining round *)
  honest : unit -> int;  (** drawn before the winners are placed *)
  adversary : unit -> int;  (** drawn after them *)
}

let unit_gaps ~rng ~honest_dist ~adv_dist ~horizon:_ _network =
  {
    gap = (fun () -> 0);
    honest = (fun () -> Binomial.sample rng honest_dist);
    adversary = (fun () -> Binomial.sample rng adv_dist);
  }

let geometric_gaps ~rng ~honest_dist ~adv_dist ~horizon network =
  (* Delivery-only rounds between mining rounds are found by next_due,
     whose direct lane needs the due index. *)
  Network.enable_due_index network;
  let log_q0 =
    Binomial.log_prob_zero honest_dist +. Binomial.log_prob_zero adv_dist
  in
  let p_honest_branch =
    (* P(H > 0 | H + A > 0); pinned to 1 when the adversary has no miners
       so the truncated adversary draw is provably never reached. *)
    if Binomial.prob_positive adv_dist = 0. then 1.
    else Binomial.prob_positive honest_dist /. -.(Float.expm1 log_q0)
  in
  (* The adversary count is drawn before the honest one and handed back
     after the winners are placed. *)
  let adversary = ref 0 in
  {
    gap =
      (fun () ->
        if log_q0 = neg_infinity then 0
        else begin
          (* Inversion: floor (log u / log q0) with u in (0, 1] is
             Geometric(1 - q0) on {0, 1, ...}. *)
          let u = 1. -. Rng.float rng in
          let g = Float.log u /. log_q0 in
          if g > float_of_int horizon then horizon else int_of_float g
        end);
    honest =
      (fun () ->
        if Rng.float rng < p_honest_branch then begin
          adversary := Binomial.sample rng adv_dist;
          Binomial.sample_positive rng honest_dist
        end
        else begin
          adversary := Binomial.sample_positive rng adv_dist;
          0
        end);
    adversary = (fun () -> !adversary);
  }

let run_events ?on_round ~instr ~law config =
  let honest_n = Config.honest_count config in
  let rng = Rng.create ~seed:config.seed in
  (* Keep the stream layout of exact mode (oracle seed, then the network
     split) so the modes draw from decorrelated streams per seed. *)
  let _oracle_seed = Rng.bits64 rng in
  let net_rng = Rng.split rng in
  let adversary = Adversary.create ~strategy:config.strategy ~honest_count:honest_n in
  let network =
    Network.create ~delta:config.delta ~players:honest_n
      ~policy:(Config.delay_policy config) ~rng:net_rng
  in
  Network.enable_ring network;
  let horizon = config.rounds in
  let law =
    let binomial trials = Binomial.create ~trials ~p:config.p in
    law ~rng ~honest_dist:(binomial honest_n)
      ~adv_dist:(binomial (Config.adversary_count config))
      ~horizon network
  in
  (* The crowd's id is never a message sender, so it consumes the whole
     shared stream. *)
  let crowd = Miner.create ~tie_break:config.tie_break ~id:(-1) () in
  let materialized : (int, Miner.t) Hashtbl.t = Hashtbl.create 64 in
  (* Winner-selection pool: a persistent permutation of the honest ids.
     Each round's partial Fisher-Yates prefix is uniform over k-subsets
     regardless of the permutation it starts from. *)
  let pool = Array.init honest_n Fun.id in
  let pattern = Pattern.create ~delta:config.delta in
  let god = Adversary.view adversary in
  let snapshots = ref [] in
  let honest_blocks = ref 0 in
  let adversary_blocks = ref 0 in
  let h_rounds = ref 0 in
  let h1_rounds = ref 0 in
  let max_reorg = ref 0 in
  let processed = ref 0 in
  (* The crowd is live while it still stands for at least one untouched
     miner; materialization is monotone, so once this flips it stays. *)
  let crowd_live () = Hashtbl.length materialized < honest_n in
  let deliver_round round ~round_reorg =
    let shared = Network.deliver_shared network ~round in
    if crowd_live () then
      receive_tracked ~god ~max_reorg crowd (blocks_of shared) ~round
        ~round_reorg;
    Hashtbl.iter
      (fun id miner ->
        let own_filtered =
          if shared = [] then []
          else
            List.concat_map
              (fun (m : Network.message) ->
                if m.sender = id then [] else m.blocks)
              shared
        in
        let direct = Network.deliver network ~recipient:id ~round in
        receive_tracked ~god ~max_reorg miner
          (own_filtered @ blocks_of direct)
          ~round ~round_reorg)
      materialized
  in
  let materialize id =
    match Hashtbl.find_opt materialized id with
    | Some miner -> miner
    | None ->
      let miner = Miner.clone crowd ~id in
      Hashtbl.add materialized id miner;
      miner
  in
  (* Every slot holds the crowd tip except the materialized miners'. *)
  let current_tips () =
    let tips = Array.make honest_n (Miner.best_tip crowd) in
    Hashtbl.iter
      (fun id miner -> tips.(id) <- Miner.best_tip miner)
      materialized;
    tips
  in
  let best_height () =
    Hashtbl.fold
      (fun _ m acc -> max acc (Miner.chain_length m))
      materialized (Miner.chain_length crowd)
  in
  let last_snap_round = ref 0 in
  (* The last snapshot's tips, dropped by every simulated round: tips
     move only there, so a snapshot taken when none ran since the
     previous one shares that snapshot's array. *)
  let snap_tips = ref None in
  let take_snapshot round =
    let tips =
      match !snap_tips with
      | Some tips -> tips
      | None ->
        let tips = current_tips () in
        snap_tips := Some tips;
        tips
    in
    snapshots := { round; tips } :: !snapshots;
    last_snap_round := round
  in
  (* Snapshot-cadence rounds inside a skipped span see exactly the state
     after the last simulated round, so they are emitted lazily from the
     current tips. *)
  let next_snap = ref config.snapshot_interval in
  let emit_snapshots_through r =
    while !next_snap <= r do
      take_snapshot !next_snap;
      next_snap := !next_snap + config.snapshot_interval
    done
  in
  let advance_empty_span ~first ~len =
    if len > 0 then begin
      Pattern.observe_empty pattern ~rounds:len;
      Adversary.advance_empty adversary ~round:first ~rounds:len;
      (match instr with
      | None -> ()
      | Some i ->
        Tel.Counter.add i.i_rounds len;
        note_convergence i ~conv_count:(Pattern.count pattern)
          ~conv_round:(Pattern.last_count_round pattern));
      emit_snapshots_through (first + len - 1)
    end
  in
  let cursor = ref 0 in
  (* The next mining round, 0 until drawn; horizon + 1 when none falls
     within the horizon. *)
  let next_mining = ref 0 in
  while !cursor < horizon do
    if !next_mining = 0 then begin
      let gap = law.gap () in
      next_mining :=
        if gap > horizon - !cursor - 1 then horizon + 1 else !cursor + 1 + gap
    end;
    let nm = !next_mining in
    (* No delivery can fall due before a mining round at cursor + 1, so
       the ring scan is only paid when a gap is pending. *)
    let target =
      if nm = !cursor + 1 then nm
      else
        match Network.next_due network ~now:!cursor with
        | Some d -> min nm d
        | None -> nm
    in
    if target > horizon then begin
      advance_empty_span ~first:(!cursor + 1) ~len:(horizon - !cursor);
      cursor := horizon
    end
    else begin
      advance_empty_span ~first:(!cursor + 1) ~len:(target - !cursor - 1);
      let round = target in
      incr processed;
      snap_tips := None;
      let round_reorg = ref 0 in
      (* Phase 1: delivery — the shared ring stream to the crowd and every
         materialized miner, plus per-miner direct queues. *)
      phase_start instr (fun i -> i.sp_delivery);
      deliver_round round ~round_reorg:(Some round_reorg);
      phase_stop instr (fun i -> i.sp_delivery);
      (* Phase 2: honest mining — the law's honest count, then a partial
         Fisher-Yates draw for which miners won.  A delivery-only round
         mines nothing and leaves the drawn mining round pending. *)
      phase_start instr (fun i -> i.sp_mining);
      let mining = round = nm in
      if mining then next_mining := 0;
      let h = if mining then law.honest () else 0 in
      let mined_this_round = ref [] in
      for i = 0 to h - 1 do
        let j = i + Rng.int rng ~bound:(honest_n - i) in
        let winner = pool.(j) in
        pool.(j) <- pool.(i);
        pool.(i) <- winner;
        let miner = materialize winner in
        let block = Miner.extend_tip miner ~round ~nonce:winner in
        mined_this_round := block :: !mined_this_round;
        Network.broadcast network
          { Network.sender = winner; sent_round = round; blocks = [ block ] }
      done;
      phase_stop instr (fun i -> i.sp_mining);
      honest_blocks := !honest_blocks + h;
      if h > 0 then incr h_rounds;
      if h = 1 then incr h1_rounds;
      Pattern.observe pattern (Round_state.of_block_count h);
      Adversary.observe adversary !mined_this_round;
      (* Phase 3: the adversary's count (only the count reaches the
         strategy), then releases. *)
      phase_start instr (fun i -> i.sp_adversary);
      let successes = if mining then law.adversary () else 0 in
      adversary_blocks := !adversary_blocks + successes;
      let releases = adversary_acts adversary ~round ~successes in
      List.iter
        (fun { Adversary.audience; delay; blocks } ->
          let msg = { Network.sender = -1; sent_round = round; blocks } in
          match audience with
          | Adversary.All_honest -> Network.broadcast_all network ~delay msg
          | Adversary.Only recipients ->
            List.iter
              (fun recipient ->
                ignore (materialize recipient);
                Network.send_direct network ~recipient ~delay msg)
              recipients)
        releases;
      phase_stop instr (fun i -> i.sp_adversary);
      observe_round ?on_round instr ~round ~h ~successes ~releases
        ~round_reorg:!round_reorg ~best_height
        ~conv_count:(Pattern.count pattern)
        ~conv_round:(Pattern.last_count_round pattern);
      emit_snapshots_through round;
      cursor := round
    end
  done;
  emit_snapshots_through horizon;
  if horizon > 0 && !last_snap_round <> horizon then take_snapshot horizon;
  for round = config.rounds + 1 to config.rounds + config.delta do
    deliver_round round ~round_reorg:None
  done;
  {
    config;
    snapshots = List.rev !snapshots;
    god_view = god;
    final_tips = current_tips ();
    convergence_opportunities = Pattern.count pattern;
    adversary_blocks = !adversary_blocks;
    honest_blocks = !honest_blocks;
    h_rounds = !h_rounds;
    h1_rounds = !h1_rounds;
    max_reorg_depth = !max_reorg;
    adversary_releases = Adversary.reorgs_caused adversary;
    messages_sent = Network.messages_sent network;
    orphans_remaining =
      Hashtbl.fold
        (fun _ m acc -> acc + Miner.orphan_count m)
        materialized
        (if crowd_live () then Miner.orphan_count crowd else 0);
    processed_rounds = !processed;
  }

let run ?on_round ?telemetry config =
  Config.validate config;
  let instr = Option.map make_instruments telemetry in
  match config.mining_mode with
  | Config.Exact -> run_exact ?on_round ~instr config
  | Config.Aggregate -> run_events ?on_round ~instr ~law:unit_gaps config
  | Config.Skip -> run_events ?on_round ~instr ~law:geometric_gaps config
