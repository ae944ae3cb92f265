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

(* Hand [blocks] to [miner] and return how deep it rolled back its chain
   (0 when its tip did not move); [max_reorg] keeps the run's deepest
   rollback. *)
let receive_tracked ~god ~max_reorg miner blocks ~round =
  match blocks with
  | [] -> 0
  | _ :: _ ->
    let old_tip = Miner.best_tip miner in
    Miner.receive miner blocks;
    let new_tip = Miner.best_tip miner in
    if Block.equal old_tip new_tip then 0
    else begin
      let meet = Block_tree.common_prefix_height god old_tip new_tip in
      let rolled_back = old_tip.Block.height - meet in
      if rolled_back > 2 then
        Log.debug (fun m ->
            m "round %d: miner %d rolled back %d blocks (%d -> %d)" round
              (Miner.id miner) rolled_back old_tip.Block.height
              new_tip.Block.height);
      if rolled_back > !max_reorg then max_reorg := rolled_back;
      rolled_back
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

(* A materialized miner's inbox in the order one per-recipient queue
   would hold it: the ring's messages (minus the miner's own broadcasts)
   merged with its direct queue by [sent_round], ring first within a
   round.  Both lists are due this round and in send order, and within a
   round every ring message goes out first: the honest broadcasts precede
   the adversary's releases, and no strategy releases to some miners and
   then to all in one round. *)
let rec merge_by_sent (ring : Network.message list)
    (direct : Network.message list) =
  match (ring, direct) with
  | [], rest | rest, [] -> rest
  | r :: ring', d :: direct' ->
    if d.sent_round < r.sent_round then d :: merge_by_sent ring direct'
    else r :: merge_by_sent ring' direct

(* ------------------------------------------------------------------ *)
(* The executor: one event-stepped body for the three mining modes.

   Every honest miner whose view equals what the shared broadcast stream
   built is one "crowd" view:

   - Under a recipient-independent delay policy (Immediate, Fixed,
     Maximal) broadcasts ride the network's shared Δ-ring lane (O(1)
     each).  A miner is materialized when it wins a block or is targeted
     by a direct send: it becomes a clone whose tree is an overlay of the
     crowd's, holding only the blocks it has beyond the crowd's, and it
     consumes the ring (minus its own broadcasts) merged with its own
     queue ([merge_by_sent]).  Materialized miners receive before the
     crowd, so a shared block lands in each overlay before the crowd's
     tree.  At the end of a delivery round a materialized miner whose
     view has come back to the crowd's (no orphans, the same best tip,
     no block the crowd lacks, nothing direct in flight) folds back into
     the crowd; a winner typically does so once its block has crossed
     the ring.  So a delivery costs the blocks delivered times the few
     miners materialized at the time, not times every honest miner.
     The miners not materialized are exact replicas of the crowd, so
     snapshots and final tips fill their slots with the crowd tip and
     the crowd's orphans count once per replica.  The first time every
     miner is materialized at once (Balance's first release does it)
     the crowd retires for good from delivery and reorg accounting, and
     nothing folds back: it would otherwise receive ring blocks whose
     direct-sent parents it never saw.
   - Under a recipient-dependent policy (Uniform_random, Per_recipient)
     the network has no ring and every honest id is materialized before
     round 1, so the crowd retires at once: each broadcast is enqueued
     per recipient, drawing its delays in id order.
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

   The mode supplies only its draws, as a [law]: the gap to the next
   mining round, that round's honest winners and the adversary's count.

   - Exact ([per_query]) has no gaps.  Each round every honest id makes
     its one H-query on its own view's tip (the crowd's when it is not
     materialized) and the adversary makes nu n sequential queries on its
     private tip, all through the Pow oracle (Section III).
   - Aggregate ([unit_gaps]) has no gaps either.  A round's honest count
     comes from binom(mu n, p) (the law of mu n independent H-queries)
     and *which* miners won is a partial Fisher-Yates draw over the
     honest ids; the adversary's nu n sequential queries collapse to one
     binom(nu n, p) count (all Adversary.act consumes).  Round outcomes
     are distribution-identical to Exact, not bit-identical.
   - Skip ([geometric_gaps]): the gap is Geometric(1 - q0) on {0, 1, ...}
     where q0 = (1-p)^(mu n + nu n) is the probability a round mines
     nothing on either side, and the mining round's counts follow the
     conditional law (H, A) | H + A > 0: with probability
     (1 - qh)/(1 - q0) a zero-truncated binom(mu n, p) honest count with
     an unconditional binom(nu n, p) adversary count, else an honest
     zero with a zero-truncated binom(nu n, p).  Multiplying out recovers
     P(H = h) P(A = a) / (1 - q0), Aggregate's joint law conditioned on
     a non-empty round, and empty rounds carry no other randomness.
     Skip is therefore distribution-identical to Aggregate, not
     bit-identical: it consumes the RNG per event rather than per round,
     and [on_round] fires only for simulated rounds.                   *)
(* ------------------------------------------------------------------ *)

type law = {
  gap : unit -> int;  (** empty rounds before the next mining round *)
  winners : round:int -> int list;
      (** the mining round's honest winners, in mining order *)
  adversary : round:int -> int;  (** drawn after the winners mined *)
}

(* What a law reads: the trial's draw stream, the oracle's seed (the
   first draw of the stream), and the current tips. *)
type source = {
  rng : Rng.t;
  oracle_seed : int64;
  config : Config.t;
  tip : int -> Block.t;  (** an honest id's view's tip *)
  private_tip : unit -> Block.t;  (** where the adversary mines *)
}

let per_query { oracle_seed; config; tip; private_tip; _ } =
  let oracle = Pow.create ~seed:oracle_seed ~p:config.p in
  let honest_n = Config.honest_count config in
  let adv_n = Config.adversary_count config in
  {
    gap = (fun () -> 0);
    winners =
      (fun ~round ->
        let won = ref [] in
        for id = honest_n - 1 downto 0 do
          match
            Pow.query oracle ~parent:(tip id).Block.hash ~miner:id ~round
              ~query_index:0
          with
          | None -> ()
          | Some _proof -> won := id :: !won
        done;
        !won);
    adversary =
      (fun ~round ->
        Pow.successes oracle ~parent:(private_tip ()).Block.hash ~miner:(-1)
          ~round ~queries:adv_n);
  }

(* [k] winners by a partial Fisher-Yates draw over a permutation of the
   honest ids that persists across rounds.  Each draw's prefix is uniform
   over k-subsets regardless of the permutation it starts from.  It is
   stored sparsely: [displaced] holds only the positions a draw has
   written, every other position holds its own id, so the pool costs
   O(winners) rather than O(n) and draws exactly what a dense array
   would. *)
let fisher_yates rng ~honest_n =
  let displaced : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let pool k = Option.value ~default:k (Hashtbl.find_opt displaced k) in
  fun k ->
    let won = ref [] in
    for i = 0 to k - 1 do
      let j = i + Rng.int rng ~bound:(honest_n - i) in
      let winner = pool j in
      Hashtbl.replace displaced j (pool i);
      Hashtbl.replace displaced i winner;
      won := winner :: !won
    done;
    List.rev !won

let binomials config =
  let binomial trials = Binomial.create ~trials ~p:config.Config.p in
  (binomial (Config.honest_count config), binomial (Config.adversary_count config))

let unit_gaps { rng; config; _ } =
  let honest_dist, adv_dist = binomials config in
  let draw = fisher_yates rng ~honest_n:(Config.honest_count config) in
  {
    gap = (fun () -> 0);
    winners = (fun ~round:_ -> draw (Binomial.sample rng honest_dist));
    adversary = (fun ~round:_ -> Binomial.sample rng adv_dist);
  }

let geometric_gaps { rng; config; _ } =
  let honest_dist, adv_dist = binomials config in
  let draw = fisher_yates rng ~honest_n:(Config.honest_count config) in
  let horizon = config.rounds in
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
    winners =
      (fun ~round:_ ->
        if Rng.float rng < p_honest_branch then begin
          adversary := Binomial.sample rng adv_dist;
          draw (Binomial.sample_positive rng honest_dist)
        end
        else begin
          adversary := Binomial.sample_positive rng adv_dist;
          []
        end);
    adversary = (fun ~round:_ -> !adversary);
  }

let run ?on_round ?telemetry config =
  Config.validate config;
  let instr = Option.map make_instruments telemetry in
  let honest_n = Config.honest_count config in
  let rng = Rng.create ~seed:config.seed in
  let oracle_seed = Rng.bits64 rng in
  let net_rng = Rng.split rng in
  let adversary = Adversary.create ~strategy:config.strategy ~honest_count:honest_n in
  let policy = Config.delay_policy config in
  let network =
    Network.create ~delta:config.delta ~players:honest_n ~policy ~rng:net_rng
  in
  let horizon = config.rounds in
  (* The crowd's id is never a message sender, so it consumes the whole
     shared stream. *)
  let crowd = Miner.create ~tie_break:config.tie_break ~id:(-1) () in
  (* Each honest id's materialized clone, [None] while its view is the
     crowd's.  [live] lists the materialized ids and [live_count] counts
     them.  (Filled with the young [crowd] instead, [Array.make] would
     force a minor collection per trial.) *)
  let views = Array.make honest_n None in
  let view id = match views.(id) with Some miner -> miner | None -> crowd in
  let live = ref [] in
  let live_count = ref 0 in
  (* Once every miner is materialized at once, the crowd retires for good:
     nothing folds back after that, so the count stays at [honest_n]. *)
  let retired () = !live_count = honest_n in
  let pattern = Pattern.create ~delta:config.delta in
  let god = Adversary.view adversary in
  let snapshots = ref [] in
  let honest_blocks = ref 0 in
  let adversary_blocks = ref 0 in
  let h_rounds = ref 0 in
  let h1_rounds = ref 0 in
  let max_reorg = ref 0 in
  let processed = ref 0 in
  (* Materialized miners receive before the crowd (their overlays must
     see each shared block first); then the ones whose view is the
     crowd's again fold back into it. *)
  let deliver_round round =
    let shared = Network.deliver_shared network ~round in
    let deepest = ref 0 in
    List.iter
      (fun id ->
        let others =
          List.filter (fun (m : Network.message) -> m.sender <> id) shared
        in
        let inbox =
          match Network.deliver network ~recipient:id ~round with
          | [] -> others
          | direct -> merge_by_sent others direct
        in
        deepest :=
          max !deepest
            (receive_tracked ~god ~max_reorg (view id) (blocks_of inbox)
               ~round))
      !live;
    if not (retired ()) then begin
      deepest :=
        max !deepest
          (receive_tracked ~god ~max_reorg crowd (blocks_of shared) ~round);
      if !live <> [] then
        live :=
          List.filter
            (fun id ->
              let folds =
                Network.queued network ~recipient:id = 0
                && Miner.folds_into (view id) ~crowd
              in
              if folds then begin
                views.(id) <- None;
                decr live_count
              end;
              not folds)
            !live
    end;
    !deepest
  in
  let materialize id =
    match views.(id) with
    | Some miner -> miner
    | None ->
      let miner = Miner.clone crowd ~id in
      views.(id) <- Some miner;
      live := id :: !live;
      incr live_count;
      miner
  in
  if not (Network.recipient_independent policy) then
    for id = 0 to honest_n - 1 do
      ignore (materialize id)
    done;
  let law =
    let source =
      {
        rng;
        oracle_seed;
        config;
        tip = (fun id -> Miner.best_tip (view id));
        private_tip = (fun () -> Adversary.private_tip adversary);
      }
    in
    match config.mining_mode with
    | Config.Exact -> per_query source
    | Config.Aggregate -> unit_gaps source
    | Config.Skip -> geometric_gaps source
  in
  (* Every slot holds the crowd tip except the materialized miners':
     filling the array costs far less than reading n views. *)
  let current_tips () =
    let tips = Array.make honest_n (Miner.best_tip crowd) in
    List.iter (fun id -> tips.(id) <- Miner.best_tip (view id)) !live;
    tips
  in
  let best_height () =
    List.fold_left
      (fun acc id -> max acc (Miner.chain_length (view id)))
      (Miner.chain_length crowd) !live
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
      (* Phase 1: delivery — the shared ring stream to the crowd and every
         materialized miner, plus per-miner direct queues. *)
      phase_start instr (fun i -> i.sp_delivery);
      let round_reorg = deliver_round round in
      phase_stop instr (fun i -> i.sp_delivery);
      (* Phase 2: honest mining — the law's winners each extend their own
         tip and broadcast.  A delivery-only round mines nothing and
         leaves the drawn mining round pending. *)
      phase_start instr (fun i -> i.sp_mining);
      let mining = round = nm in
      if mining then next_mining := 0;
      let winners = if mining then law.winners ~round else [] in
      let mined_this_round =
        (* Matched first so that a round nobody won allocates no closure. *)
        match winners with
        | [] -> []
        | _ :: _ ->
          List.fold_left
            (fun mined id ->
              let block = Miner.extend_tip (materialize id) ~round ~nonce:id in
              Network.broadcast network
                { Network.sender = id; sent_round = round; blocks = [ block ] };
              block :: mined)
            [] winners
      in
      let h = List.length winners in
      phase_stop instr (fun i -> i.sp_mining);
      honest_blocks := !honest_blocks + h;
      if h > 0 then incr h_rounds;
      if h = 1 then incr h1_rounds;
      Pattern.observe pattern (Round_state.of_block_count h);
      Adversary.observe adversary mined_this_round;
      (* Phase 3: the adversary's count (only the count reaches the
         strategy), then releases. *)
      phase_start instr (fun i -> i.sp_adversary);
      let successes = if mining then law.adversary ~round else 0 in
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
        ~round_reorg ~best_height
        ~conv_count:(Pattern.count pattern)
        ~conv_round:(Pattern.last_count_round pattern);
      emit_snapshots_through round;
      cursor := round
    end
  done;
  emit_snapshots_through horizon;
  if horizon > 0 && !last_snap_round <> horizon then take_snapshot horizon;
  (* Quiesce: deliver the messages still in flight (at most delta rounds'
     worth), visiting only the rounds with a delivery due.  Without this,
     an adversary that reorders heavily can leave a child block delivered
     but its parent still in transit at the cutoff, stranding orphans
     that the model says must connect. *)
  let rec quiesce now =
    match Network.next_due network ~now with
    | Some round when round <= config.rounds + config.delta ->
      ignore (deliver_round round);
      quiesce round
    | Some _ | None -> ()
  in
  quiesce horizon;
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
      List.fold_left
        (fun acc id -> acc + Miner.orphan_count (view id))
        ((honest_n - !live_count) * Miner.orphan_count crowd)
        !live;
    processed_rounds = !processed;
  }
