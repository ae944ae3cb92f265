(* The differential oracle tier: generated scenarios through every
   executor lane (Exact, Aggregate, Skip, state process), four-way
   stationary cross-checks, the sampled-gap law behind the Skip
   executor, and the Δ-ring versus per-recipient-queue network
   equivalence (the cross-lane leg of the adversarial strategies that
   cannot share a mining mode). *)

open Prop_helpers
module P = Nakamoto_proptest
module Gen = P.Gen
module Arbitrary = P.Arbitrary
module Rng = Nakamoto_prob.Rng
module Block = Nakamoto_chain.Block
module Network = Nakamoto_net.Network
module Scenarios = Nakamoto_sim.Scenarios
module Config = Nakamoto_sim.Config
module Execution = Nakamoto_sim.Execution
module Adversary = Nakamoto_sim.Adversary

(* --- the oracle proper --- *)

let prop_differential_oracle spec = P.Oracle.check spec

let test_suffix_stationary_sweep () =
  List.iter
    (fun delta ->
      List.iter
        (fun alpha -> P.Oracle.suffix_stationary ~delta ~alpha)
        [ 0.07; 0.3; 0.6; 0.9 ])
    [ 1; 2; 3; 4; 5; 6 ]

let prop_conv_stationary (delta, params) =
  P.Oracle.conv_stationary ~delta params

(* The large-Δ three-way through the sparse substrate: Eq. 37's closed
   form vs GTH censoring vs sparse power iteration, at Δ two orders of magnitude past what the dense solvers
   reach.  Alphas shrink with Δ so abar^Δ stays ~e^-4 — large enough
   that no leg needs subnormal arithmetic to agree.  The soak tier adds
   the Δ ∈ {500, 2000} legs of the acceptance bar; Δ = 64 guards the
   fast tier. *)
let test_suffix_stationary_sparse () =
  let legs =
    sized
      ~fast:[ (64, 0.05) ]
      ~soak:[ (64, 0.05); (500, 0.008); (2000, 0.002) ]
  in
  List.iter
    (fun (delta, alpha) -> P.Oracle.suffix_stationary_sparse ~delta ~alpha)
    legs

let prop_conv_stationary_sparse (delta, params) =
  P.Oracle.conv_stationary_sparse ~delta params

(* --- Δ-ring vs queue-lane network equivalence --- *)

type event =
  | Broadcast of { sender : int }  (** policy-delayed honest broadcast *)
  | Release of { sender : int; delay : int }  (** [broadcast_all] *)
  | Direct of { recipient : int; delay : int }  (** adversarial side channel *)

type schedule = {
  delta : int;
  players : int;
  policy : Network.delay_policy;
  events : (int * event) list;  (** (send round, event) *)
}

let policy_to_string = function
  | Network.Immediate -> "Immediate"
  | Network.Fixed d -> Printf.sprintf "Fixed %d" d
  | Network.Maximal -> "Maximal"
  | Network.Uniform_random -> "Uniform_random"
  | Network.Per_recipient _ -> "Per_recipient"

let event_to_string (round, ev) =
  match ev with
  | Broadcast { sender } -> Printf.sprintf "%d:bcast(%d)" round sender
  | Release { sender; delay } ->
    Printf.sprintf "%d:release(%d,+%d)" round sender delay
  | Direct { recipient; delay } ->
    Printf.sprintf "%d:direct(->%d,+%d)" round recipient delay

let schedule_to_string s =
  Printf.sprintf "{delta=%d; players=%d; policy=%s; [%s]}" s.delta s.players
    (policy_to_string s.policy)
    (String.concat "; " (List.map event_to_string s.events))

(* The generated traffic covers every shape the simulator's strategies
   produce: policy-routed honest broadcasts (selfish mining's race
   releases ride these), release-to-everyone at explicit delays (private
   chain, selfish mining), and per-recipient direct sends at divergent
   delays (the balance attack's split views). *)
let schedule_arb =
  let gen rng =
    let delta = Gen.int_range ~lo:1 ~hi:5 rng in
    let players = Gen.int_range ~lo:2 ~hi:6 rng in
    let policy =
      Gen.oneof
        [
          Gen.return Network.Immediate;
          Gen.map (fun d -> Network.Fixed d) (Gen.int_range ~lo:1 ~hi:6);
          Gen.return Network.Maximal;
        ]
        rng
    in
    let event rng =
      let round = Gen.int_range ~lo:1 ~hi:25 rng in
      let ev =
        Gen.frequency
          [
            ( 3,
              Gen.map
                (fun s -> Broadcast { sender = s })
                (Gen.int_range ~lo:0 ~hi:(players - 1)) );
            ( 2,
              Gen.map
                (fun (s, d) -> Release { sender = s; delay = d })
                (Gen.pair
                   (Gen.int_range ~lo:(-1) ~hi:(players - 1))
                   (Gen.int_range ~lo:1 ~hi:7)) );
            ( 2,
              Gen.map
                (fun (r, d) -> Direct { recipient = r; delay = d })
                (Gen.pair
                   (Gen.int_range ~lo:0 ~hi:(players - 1))
                   (Gen.int_range ~lo:1 ~hi:7)) );
          ]
          rng
      in
      (round, ev)
    in
    {
      delta;
      players;
      policy;
      events = Gen.list ~len:(Gen.int_range ~lo:0 ~hi:40) event rng;
    }
  in
  let shrink s =
    Seq.map
      (fun events -> { s with events })
      (P.Shrink.list P.Shrink.nothing s.events)
  in
  Arbitrary.make ~print:schedule_to_string ~shrink gen

(* One message per event, with a payload unique to the event so delivery
   multisets compare by value. *)
let message_of_event idx (round, ev) =
  let sender =
    match ev with
    | Broadcast { sender } -> sender
    | Release { sender; _ } -> sender
    | Direct _ -> -1
  in
  let miner_class = if sender < 0 then Block.Adversarial else Block.Honest in
  let block =
    Block.mine ~parent:Block.genesis ~miner:(max 0 sender) ~miner_class ~round
      ~nonce:idx ~payload:(string_of_int idx)
  in
  { Network.sender; sent_round = round; blocks = [ block ] }

let apply_event net idx (round, ev) =
  let msg = message_of_event idx (round, ev) in
  match ev with
  | Broadcast _ -> Network.broadcast net msg
  | Release { delay; _ } -> Network.broadcast_all net ~delay msg
  | Direct { recipient; delay } -> Network.send_direct net ~recipient ~delay msg

let delivery_key (m : Network.message) =
  ( m.Network.sender,
    m.Network.sent_round,
    match m.Network.blocks with b :: _ -> b.Block.payload | [] -> "" )

let keys msgs = List.sort compare (List.map delivery_key msgs)

let prop_ring_matches_queues s =
  let mk () =
    Network.create ~delta:s.delta ~players:s.players ~policy:s.policy
      ~rng:(Rng.create ~seed:1L)
  in
  let queue_net = mk () in
  let ring_net = mk () in
  Network.enable_ring ring_net;
  let horizon =
    List.fold_left (fun acc (r, _) -> max acc r) 0 s.events + s.delta + 2
  in
  for round = 1 to horizon do
    (* Send, then drain — the executor's per-round cadence, and the only
       one the ring supports: its delta + 1 buckets cover exactly the
       due rounds a message sent *now* can land in. *)
    List.iteri
      (fun i ((r, _) as ev) ->
        if r = round then begin
          apply_event queue_net i ev;
          apply_event ring_net i ev
        end)
      s.events;
    if Network.messages_sent queue_net <> Network.messages_sent ring_net then
      failwith
        (Printf.sprintf "messages_sent after round %d: queue %d, ring %d"
           round
           (Network.messages_sent queue_net)
           (Network.messages_sent ring_net));
    (* The ring is drained once per round; the consumer fans each shared
       message out to every player except its sender — exactly what the
       aggregate executor does with [deliver_shared]. *)
    let shared = Network.deliver_shared ring_net ~round in
    for recipient = 0 to s.players - 1 do
      let expected = keys (Network.deliver queue_net ~recipient ~round) in
      let direct = Network.deliver ring_net ~recipient ~round in
      let fanned =
        List.filter (fun m -> m.Network.sender <> recipient) shared
      in
      let actual = keys (direct @ fanned) in
      if expected <> actual then
        failwith
          (Printf.sprintf
             "round %d recipient %d: queue lane delivered %d, ring lane %d"
             round recipient (List.length expected) (List.length actual))
    done
  done;
  if Network.pending queue_net <> 0 || Network.pending ring_net <> 0 then
    failwith "undelivered messages after the horizon"

(* --- the Skip executor's sampled gap law --- *)

(* Mining is iid per round: a round bears a block (honest or
   adversarial) with probability 1 - q0, q0 = (1-p)^n, independently of
   every other round — so the gaps between consecutive block-bearing
   rounds are Geometric(1 - q0) on {1, 2, ...}.  The Skip executor
   *samples* those gaps (inversion on Geometric, then the conditional
   success law), so this pins the sampler itself: collect the realized
   inter-event gaps of a Skip run and chi-square them against the
   geometric masses at the family alpha. *)
let test_skip_gap_law () =
  let spec =
    {
      Scenarios.default_spec with
      Scenarios.n = 48;
      nu = 0.25;
      c = 4.;
      delta = 2;
      rounds = sized ~fast:30_000 ~soak:120_000;
      seed = 20260807L;
      strategy = Adversary.Idle;
      mining_mode = Config.Skip;
    }
  in
  let cfg = Scenarios.of_spec spec in
  let last_event = ref 0 in
  let gaps = ref [] in
  let (_ : Execution.result) =
    Execution.run
      ~on_round:(fun (rr : Execution.round_report) ->
        (* Skip also simulates delivery-only rounds; mining events are
           exactly the rounds where some query succeeded. *)
        if rr.honest_mined + rr.adversary_successes > 0 then begin
          gaps := (rr.round_number - !last_event) :: !gaps;
          last_event := rr.round_number
        end)
      cfg
  in
  let gaps = !gaps in
  let total = List.length gaps in
  let q0 = (1. -. cfg.Config.p) ** float_of_int cfg.Config.n in
  (* Observed gap counts for k = 1..bins, last bin = everything >= bins;
     expected carries the same total, so the GOF preconditions hold and
     Stats' automatic pooling keeps every compared cell >= 5 expected. *)
  let bins = 36 in
  let observed = Array.make bins 0 in
  List.iter
    (fun g -> observed.(min (bins - 1) (g - 1)) <- observed.(min (bins - 1) (g - 1)) + 1)
    gaps;
  let expected =
    Array.init bins (fun i ->
        let k = i + 1 in
        if k < bins then
          float_of_int total *. (q0 ** float_of_int (k - 1)) *. (1. -. q0)
        else float_of_int total *. (q0 ** float_of_int (bins - 1)))
  in
  P.Stat.assert_family ~family:"skip executor gap law"
    [
      P.Stat.chi_square_gof
        ~label:"inter-event gaps vs Geometric(1 - (1-p)^n)" ~observed
        ~expected;
    ]

(* --- end-to-end cross-lane distribution equality per strategy --- *)

(* Selfish mining and the private-chain attack run under all three full
   executors (their delay policies are recipient-independent); [runs]
   paired executions per lane must agree on every pooled statistic.  The
   balance attack is queue-lane-only by construction — its ring-lane leg
   is the schedule property above, which exercises exactly the traffic
   shapes it emits (split [Direct] views plus [Release] catch-ups). *)
let cross_lane_strategy ~label ~strategy ~tie_break () =
  let base =
    {
      Scenarios.default_spec with
      Scenarios.n = 36;
      nu = 0.3;
      c = 2.0;
      delta = 3;
      rounds = 500;
      strategy;
      delay = None;
      tie_break;
      mining_mode = Config.Exact;
    }
  in
  let runs = sized ~fast:30 ~soak:100 in
  let lane mode tag =
    Array.init runs (fun i ->
        let seed = Rng.seed_of_path ~seed:2026L [ tag; i ] in
        Execution.run
          (Scenarios.of_spec { base with Scenarios.seed; mining_mode = mode }))
  in
  let exact = lane Config.Exact 1 in
  let aggregate = lane Config.Aggregate 2 in
  let skip = lane Config.Skip 3 in
  let sum f lane = Array.fold_left (fun acc r -> acc + f r) 0 lane in
  let cfg = Scenarios.of_spec base in
  let honest = Config.honest_count cfg in
  let round_trials = runs * base.Scenarios.rounds in
  let heights lane =
    Array.map
      (fun (r : Execution.result) ->
        Array.fold_left
          (fun acc (b : Block.t) -> max acc b.Block.height)
          0 r.Execution.final_tips
        |> float_of_int)
      lane
  in
  let lane_checks (vs_name, vs) =
    let prop_check name f trials =
      P.Stat.proportions
        ~label:(Printf.sprintf "%s: %s (exact vs %s)" label name vs_name)
        ~hits_a:(sum f exact) ~trials_a:trials ~hits_b:(sum f vs)
        ~trials_b:trials
    in
    [
      prop_check "H rounds" (fun r -> r.Execution.h_rounds) round_trials;
      prop_check "H1 rounds" (fun r -> r.Execution.h1_rounds) round_trials;
      prop_check "convergence opportunities"
        (fun r -> r.Execution.convergence_opportunities)
        round_trials;
      prop_check "honest blocks"
        (fun r -> r.Execution.honest_blocks)
        (round_trials * honest);
      P.Stat.ks
        ~label:(Printf.sprintf "%s: final heights (exact vs %s)" label vs_name)
        (heights exact) (heights vs);
    ]
  in
  P.Stat.assert_family ~family:(label ^ " cross-lane")
    (List.concat_map lane_checks
       [ ("aggregate", aggregate); ("skip", skip) ])

let suite =
  [
    prop "differential oracle across the four executor lanes" ~count:50
      P.Domain_gen.oracle_spec prop_differential_oracle;
    case "skip executor: sampled inter-event gaps are Geometric(1 - (1-p)^n)"
      test_skip_gap_law;
    case "suffix chain stationary: closed form vs solve vs power iteration"
      test_suffix_stationary_sweep;
    prop "concatenated chain stationary: four derivations agree" ~count:15
      (P.Domain_gen.explicit_chain_point ~delta_max:3)
      prop_conv_stationary;
    case "suffix chain stationary at large delta: sparse four-way"
      test_suffix_stationary_sparse;
    prop "concatenated chain stationary: sparse path agrees with Eqs. 40/44"
      ~count:10
      (P.Domain_gen.explicit_chain_point ~delta_max:3)
      prop_conv_stationary_sparse;
    prop "Δ-ring lane delivers the same multisets as per-recipient queues"
      ~count:200 schedule_arb prop_ring_matches_queues;
    case "selfish mining: Exact, Aggregate and Skip lanes agree"
      (cross_lane_strategy ~label:"selfish mining"
         ~strategy:Adversary.Selfish_mining
         ~tie_break:Nakamoto_chain.Block_tree.Prefer_honest);
    case "private-chain attack: Exact, Aggregate and Skip lanes agree"
      (cross_lane_strategy ~label:"private chain"
         ~strategy:(Adversary.Private_chain { reorg_target = 3 })
         ~tie_break:Nakamoto_chain.Block_tree.First_seen);
  ]
