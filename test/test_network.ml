open Helpers
module Network = Nakamoto_net.Network
module Block = Nakamoto_chain.Block

let make ?(delta = 4) ?(players = 3) ?(policy = Network.Immediate) () =
  Network.create ~delta ~players ~policy ~rng:(rng ())

(* A recipient-dependent policy that picks the same delay [d] for every
   recipient: the queue lane carrying what [Fixed d] would put on the
   ring. *)
let queued d = Network.Per_recipient (fun ~recipient:_ _ -> d)

let msg ?(sender = 0) ~round () =
  { Network.sender; sent_round = round; blocks = [ Block.genesis ] }

let test_create_validation () =
  check_raises_invalid "delta 0" (fun () ->
      ignore (make ~delta:0 ()));
  check_raises_invalid "no players" (fun () -> ignore (make ~players:0 ()))

let test_broadcast_excludes_sender () =
  let n = make ~policy:(queued 1) () in
  Network.broadcast n (msg ~sender:1 ~round:1 ());
  check_int "two recipients" 2 (Network.messages_sent n);
  check_true "sender gets nothing"
    (Network.deliver n ~recipient:1 ~round:100 = []);
  check_int "others get it" 1
    (List.length (Network.deliver n ~recipient:0 ~round:100))

(* Immediate, Maximal and Fixed broadcasts ride the ring; each delay is
   also checked on the queue lane through its constant [queued] twin. *)
let test_immediate_delivery_next_round () =
  let n = make () in
  (* The ring takes sends at its drain frontier, as the executor makes
     them. *)
  ignore (Network.deliver_shared n ~round:4);
  Network.broadcast n (msg ~round:5 ());
  check_true "not yet at round 5" (Network.deliver_shared n ~round:5 = []);
  check_int "delivered at round 6" 1
    (List.length (Network.deliver_shared n ~round:6));
  let q = make ~policy:(queued 1) () in
  Network.broadcast q (msg ~round:5 ());
  check_true "queued: not yet at round 5"
    (Network.deliver q ~recipient:1 ~round:5 = []);
  check_int "queued: delivered at round 6" 1
    (List.length (Network.deliver q ~recipient:1 ~round:6))

let test_maximal_policy_delays_delta () =
  let n = make ~delta:4 ~policy:Network.Maximal () in
  ignore (Network.deliver_shared n ~round:9);
  Network.broadcast n (msg ~round:10 ());
  check_true "not at 13" (Network.deliver_shared n ~round:13 = []);
  check_int "at 14" 1 (List.length (Network.deliver_shared n ~round:14));
  let q = make ~delta:4 ~policy:(queued 4) () in
  Network.broadcast q (msg ~round:10 ());
  check_true "queued: not at 13"
    (Network.deliver q ~recipient:1 ~round:13 = []);
  check_int "queued: at 14" 1
    (List.length (Network.deliver q ~recipient:1 ~round:14))

let test_fixed_policy_clamped () =
  (* Fixed 100 with delta 4 must clamp to 4, on either lane. *)
  let n = make ~delta:4 ~policy:(Network.Fixed 100) () in
  Network.broadcast n (msg ~round:1 ());
  check_true "not before delta" (Network.deliver_shared n ~round:4 = []);
  check_int "clamped to delta" 1
    (List.length (Network.deliver_shared n ~round:5));
  let q = make ~delta:4 ~policy:(queued 100) () in
  Network.broadcast q (msg ~round:1 ());
  check_true "queued: not before delta"
    (Network.deliver q ~recipient:1 ~round:4 = []);
  check_int "queued: clamped to delta" 1
    (List.length (Network.deliver q ~recipient:1 ~round:5));
  (* Fixed 0 clamps up to 1. *)
  let n0 = make ~delta:4 ~policy:(Network.Fixed 0) () in
  Network.broadcast n0 (msg ~round:1 ());
  check_true "same-round delivery impossible"
    (Network.deliver_shared n0 ~round:1 = []);
  check_int "clamped to 1" 1
    (List.length (Network.deliver_shared n0 ~round:2));
  let q0 = make ~delta:4 ~policy:(queued 0) () in
  Network.broadcast q0 (msg ~round:1 ());
  check_true "queued: same-round delivery impossible"
    (Network.deliver q0 ~recipient:1 ~round:1 = []);
  check_int "queued: clamped to 1" 1
    (List.length (Network.deliver q0 ~recipient:1 ~round:2))

let test_uniform_policy_within_bounds () =
  let n = make ~delta:6 ~policy:Network.Uniform_random ~players:2 () in
  for r = 1 to 200 do
    Network.broadcast n { (msg ~round:r ()) with sender = 0 }
  done;
  (* Everything must arrive within delta rounds. *)
  let received = ref 0 in
  for r = 1 to 206 do
    received := !received + List.length (Network.deliver n ~recipient:1 ~round:r)
  done;
  check_int "all arrive within delta" 200 !received;
  check_int "none pending" 0 (Network.pending n)

let test_per_recipient_policy () =
  let policy =
    Network.Per_recipient
      (fun ~recipient _ -> if recipient = 1 then 1 else 3)
  in
  let n = make ~delta:4 ~players:3 ~policy () in
  Network.broadcast n (msg ~sender:0 ~round:1 ());
  check_int "fast recipient" 1
    (List.length (Network.deliver n ~recipient:1 ~round:2));
  check_true "slow recipient not yet" (Network.deliver n ~recipient:2 ~round:2 = []);
  check_int "slow recipient at 4" 1
    (List.length (Network.deliver n ~recipient:2 ~round:4))

let test_send_direct () =
  let n = make ~delta:4 () in
  Network.send_direct n ~recipient:2 ~delay:2 (msg ~sender:(-1) ~round:1 ());
  check_int "direct delivery" 1
    (List.length (Network.deliver n ~recipient:2 ~round:3));
  check_raises_invalid "recipient range" (fun () ->
      Network.send_direct n ~recipient:7 ~delay:1 (msg ~round:1 ()))

let test_delivery_order () =
  let n = make ~delta:8 ~players:2 () in
  (* Two messages due the same round arrive in send order. *)
  Network.send_direct n ~recipient:1 ~delay:2
    { Network.sender = 0; sent_round = 1; blocks = [] };
  Network.send_direct n ~recipient:1 ~delay:2
    { Network.sender = 0; sent_round = 1; blocks = [ Block.genesis ] };
  match Network.deliver n ~recipient:1 ~round:3 with
  | [ first; second ] ->
    check_int "first sent first" 0 (List.length first.Network.blocks);
    check_int "second second" 1 (List.length second.Network.blocks)
  | _ -> Alcotest.fail "expected both messages"

let test_messages_never_lost () =
  let n = make ~delta:3 ~players:4 ~policy:Network.Uniform_random () in
  for r = 1 to 50 do
    Network.broadcast n (msg ~sender:(r mod 4) ~round:r ())
  done;
  let total = ref 0 in
  for recipient = 0 to 3 do
    for r = 1 to 60 do
      total := !total + List.length (Network.deliver n ~recipient ~round:r)
    done
  done;
  check_int "every enqueued message is delivered exactly once"
    (Network.messages_sent n) !total;
  check_int "nothing pending" 0 (Network.pending n)

(* ------------------------------------------------------------------ *)
(* Δ-ring broadcast lane                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_broadcast_and_drain () =
  let n = make ~delta:4 ~players:5 ~policy:(Network.Fixed 2) () in
  Network.broadcast n (msg ~sender:1 ~round:3 ());
  (* One ring insertion stands for players - 1 = 4 deliveries. *)
  check_int "fan-out counted" 4 (Network.messages_sent n);
  check_int "fan-out pending" 4 (Network.pending n);
  (* The queue lane stays empty; the shared lane delivers at round 5. *)
  check_true "queues untouched" (Network.deliver n ~recipient:0 ~round:10 = []);
  check_true "not due yet" (Network.deliver_shared n ~round:4 = []);
  (match Network.deliver_shared n ~round:5 with
  | [ m ] -> check_int "the broadcast message" 1 m.Network.sender
  | _ -> Alcotest.fail "expected exactly one shared message");
  check_true "drained once" (Network.deliver_shared n ~round:5 = []);
  check_int "nothing pending" 0 (Network.pending n)

let test_ring_order_and_skipped_rounds () =
  let n = make ~delta:4 ~players:3 ~policy:Network.Immediate () in
  (* Mixed delays via broadcast_all, plus policy broadcasts; drain with a
     jump over several rounds: due order, send-stable within a round. *)
  Network.broadcast_all n ~delay:3
    { Network.sender = -1; sent_round = 1; blocks = [] };
  Network.broadcast n (msg ~sender:0 ~round:1 ());  (* due 2 *)
  Network.broadcast n (msg ~sender:2 ~round:1 ());  (* due 2 *)
  (match Network.deliver_shared n ~round:6 with
  | [ a; b; c ] ->
    check_int "due-2 first (send order)" 0 a.Network.sender;
    check_int "due-2 second" 2 b.Network.sender;
    check_int "due-4 last" (-1) c.Network.sender
  | l -> Alcotest.fail (Printf.sprintf "expected 3 messages, got %d" (List.length l)));
  (* Ring slots recycle after draining: a later broadcast lands cleanly. *)
  Network.broadcast n (msg ~sender:1 ~round:7 ());
  check_int "recycled slot delivers" 1
    (List.length (Network.deliver_shared n ~round:8))

let test_ring_adversary_fanout () =
  (* A sender outside the player set (the adversary) reaches everyone:
     fan-out players, not players - 1. *)
  let n = make ~delta:4 ~players:3 ~policy:Network.Maximal () in
  Network.broadcast_all n ~delay:1
    { Network.sender = -1; sent_round = 1; blocks = [] };
  check_int "full fan-out counted" 3 (Network.messages_sent n);
  check_int "full fan-out pending" 3 (Network.pending n);
  ignore (Network.deliver_shared n ~round:2);
  check_int "drained" 0 (Network.pending n)

let test_ring_direct_sends_stay_queued () =
  (* send_direct keeps using the per-recipient queues even with the ring
     on — the two lanes coexist. *)
  let n = make ~delta:4 ~players:3 ~policy:Network.Immediate () in
  Network.send_direct n ~recipient:2 ~delay:2 (msg ~sender:(-1) ~round:1 ());
  Network.broadcast n (msg ~sender:0 ~round:1 ());
  check_int "queued + ring pending" 3 (Network.pending n);
  check_int "direct delivery via queue" 1
    (List.length (Network.deliver n ~recipient:2 ~round:3));
  check_int "shared delivery via ring" 1
    (List.length (Network.deliver_shared n ~round:3));
  check_int "nothing left" 0 (Network.pending n)

let test_ring_recipient_dependent_policy_stays_queued () =
  (* Under Uniform_random the ring cannot represent per-recipient delays:
     the network keeps no ring, and broadcasts and releases to everyone
     take the queue lane. *)
  let n = make ~delta:3 ~players:4 ~policy:Network.Uniform_random () in
  Network.broadcast n (msg ~sender:0 ~round:1 ());
  Network.broadcast_all n ~delay:2
    { Network.sender = -1; sent_round = 1; blocks = [] };
  check_true "ring lane empty" (Network.deliver_shared n ~round:10 = []);
  let got = ref 0 in
  for recipient = 0 to 3 do
    for r = 1 to 10 do
      got := !got + List.length (Network.deliver n ~recipient ~round:r)
    done
  done;
  check_int "all copies through the queues" 7 !got

let test_ring_fast_forward_equals_single_steps () =
  (* Skipping k >> delta rounds in one deliver_shared call yields the
     same messages, in the same order, as k single-round drains — the
     Skip executor's fast-forward contract. *)
  let fill n =
    Network.broadcast n (msg ~sender:0 ~round:1 ());
    Network.broadcast_all n ~delay:3
      { Network.sender = -1; sent_round = 1; blocks = [] };
    Network.broadcast n (msg ~sender:2 ~round:2 ())
  in
  let jump = make ~delta:4 ~players:3 ~policy:Network.Immediate () in
  let step = make ~delta:4 ~players:3 ~policy:Network.Immediate () in
  fill jump;
  fill step;
  let jumped = Network.deliver_shared jump ~round:1000 in
  let stepped = ref [] in
  for r = 2 to 1000 do
    stepped := !stepped @ Network.deliver_shared step ~round:r
  done;
  let senders l = List.map (fun (m : Network.message) -> m.Network.sender) l in
  Alcotest.(check (list int))
    "same messages in due order" (senders !stepped) (senders jumped);
  check_int "jump drained everything" 0 (Network.pending jump);
  (* The frontier really moved: a post-jump broadcast lands cleanly in a
     recycled slot. *)
  Network.broadcast jump (msg ~sender:1 ~round:1000 ());
  check_int "recycled slot after the jump" 1
    (List.length (Network.deliver_shared jump ~round:1001))

let test_next_due () =
  let n = make ~delta:4 ~players:3 ~policy:Network.Maximal () in
  check_true "idle network: no due" (Network.next_due n ~now:0 = None);
  Network.broadcast n (msg ~sender:0 ~round:1 ());
  (* Maximal policy: due at 1 + delta = 5, via the ring lane. *)
  check_true "ring due at 5" (Network.next_due n ~now:1 = Some 5);
  Network.send_direct n ~recipient:2 ~delay:2 (msg ~sender:(-1) ~round:1 ());
  check_true "earlier direct due wins" (Network.next_due n ~now:1 = Some 3);
  ignore (Network.deliver n ~recipient:2 ~round:3);
  check_true "after direct delivery the ring remains"
    (Network.next_due n ~now:3 = Some 5);
  check_raises_invalid "overdue ring delivery is a caller bug" (fun () ->
      ignore (Network.next_due n ~now:5));
  ignore (Network.deliver_shared n ~round:5);
  check_true "fully drained: no due" (Network.next_due n ~now:5 = None)

(* A fresh network holds one empty inbox slot per player and nothing
   else: each recipient's queue is created by the first send to it. *)
let test_fresh_network_is_one_slot_per_player () =
  let players = 1_000_000 in
  let n = make ~players () in
  let words = Obj.reachable_words (Obj.repr n) in
  check_true
    (Printf.sprintf "%d reachable words for %d players" words players)
    (words <= players + 64);
  check_true "never-sent recipient delivers nothing"
    (Network.deliver n ~recipient:17 ~round:1_000 = []);
  check_int "nothing pending" 0 (Network.pending n);
  Network.send_direct n ~recipient:(players - 1) ~delay:2 (msg ~round:3 ());
  check_int "one pending" 1 (Network.pending n);
  check_true "not before its due round"
    (Network.deliver n ~recipient:(players - 1) ~round:4 = []);
  check_int "last player receives it" 1
    (List.length (Network.deliver n ~recipient:(players - 1) ~round:5));
  check_int "drained" 0 (Network.pending n)

let suite =
  [
    case "create validation" test_create_validation;
    case "broadcast excludes sender" test_broadcast_excludes_sender;
    case "immediate = next round" test_immediate_delivery_next_round;
    case "maximal policy waits delta" test_maximal_policy_delays_delta;
    case "fixed policy clamped to [1, delta]" test_fixed_policy_clamped;
    case "uniform policy within bounds" test_uniform_policy_within_bounds;
    case "per-recipient adaptive policy" test_per_recipient_policy;
    case "send_direct" test_send_direct;
    case "same-round delivery order" test_delivery_order;
    case "messages never lost (capability 1)" test_messages_never_lost;
    case "ring broadcast and drain" test_ring_broadcast_and_drain;
    case "ring order and skipped rounds" test_ring_order_and_skipped_rounds;
    case "ring adversary fan-out" test_ring_adversary_fanout;
    case "ring and queue lanes coexist" test_ring_direct_sends_stay_queued;
    case "ring ignores recipient-dependent broadcasts"
      test_ring_recipient_dependent_policy_stays_queued;
    case "ring fast-forward equals single-round drains"
      test_ring_fast_forward_equals_single_steps;
    case "next_due across both lanes" test_next_due;
    case "a fresh network is one slot per player"
      test_fresh_network_is_one_slot_per_player;
  ]
