type message = {
  sender : int;
  sent_round : int;
  blocks : Nakamoto_chain.Block.t list;
}

type delay_policy =
  | Immediate
  | Fixed of int
  | Uniform_random
  | Maximal
  | Per_recipient of (recipient:int -> message -> int)

(* The Δ-ring broadcast lane: one shared bucket per due round, recycled
   modulo delta + 1.  A broadcast under a recipient-independent policy is
   one list-cons here instead of players - 1 heap pushes; the executor
   drains each round's bucket once and routes it to every live view.
   Buckets hold messages in reverse send order (cons), reversed on drain. *)
type ring = {
  buckets : message list array;  (* indexed by due round mod (delta + 1) *)
  mutable drained_through : int;  (* every round <= this has been drained *)
  mutable ring_pending : int;  (* undelivered deliveries, recipient-weighted *)
}

type t = {
  delta : int;
  players : int;
  policy : delay_policy;
  rng : Nakamoto_prob.Rng.t;
  (* Per-recipient queues, each created by its first enqueue: a run whose
     broadcasts all ride the ring pays for the recipients it sent to
     directly, not for every player. *)
  inboxes : message Event_queue.t option array;
  (* Present exactly under a recipient-independent policy. *)
  ring : ring option;
  (* Index of direct-queue due times, so [next_due] can answer in
     O(log pending) instead of scanning every inbox.  Entries are never
     removed on delivery; [next_due] lazily drops the stale prefix. *)
  due_index : unit Event_queue.t;
  mutable sent : int;
}

let recipient_independent = function
  | Immediate | Fixed _ | Maximal -> true
  | Uniform_random | Per_recipient _ -> false

let create ~delta ~players ~policy ~rng =
  if delta < 1 then invalid_arg "Network.create: delta must be >= 1";
  if players <= 0 then invalid_arg "Network.create: players must be positive";
  {
    delta;
    players;
    policy;
    rng;
    inboxes = Array.make players None;
    ring =
      (if recipient_independent policy then
         Some
           {
             buckets = Array.make (delta + 1) [];
             drained_through = 0;
             ring_pending = 0;
           }
       else None);
    due_index = Event_queue.create ();
    sent = 0;
  }

let delta t = t.delta

let clamp_delay t d = max 1 (min t.delta d)

let chosen_delay t ~recipient msg =
  let raw =
    match t.policy with
    | Immediate -> 1
    | Fixed d -> d
    | Uniform_random -> 1 + Nakamoto_prob.Rng.int t.rng ~bound:t.delta
    | Maximal -> t.delta
    | Per_recipient f -> f ~recipient msg
  in
  clamp_delay t raw

let inbox t recipient =
  match t.inboxes.(recipient) with
  | Some q -> q
  | None ->
    let q = Event_queue.create () in
    t.inboxes.(recipient) <- Some q;
    q

let enqueue t ~recipient ~delay msg =
  let time = msg.sent_round + delay in
  Event_queue.push (inbox t recipient) ~time msg;
  Event_queue.push t.due_index ~time ();
  t.sent <- t.sent + 1

(* A shared enqueue stands for one delivery per player, minus the sender's
   own copy when the sender is a player (it skips its own message at drain
   time).  A non-player sender (the adversary, id -1) reaches everyone. *)
let ring_fanout t msg =
  if msg.sender >= 0 && msg.sender < t.players then t.players - 1
  else t.players

(* [sent] advances by the same amount as the queue lane would, so the
   metric stays comparable across lanes. *)
let ring_push t ring ~delay msg =
  let due = msg.sent_round + delay in
  if due <= ring.drained_through then
    invalid_arg "Network: ring broadcast due in an already-drained round";
  if due > ring.drained_through + t.delta + 1 then
    invalid_arg "Network: ring broadcast due beyond the ring horizon";
  let slot = due mod (t.delta + 1) in
  ring.buckets.(slot) <- msg :: ring.buckets.(slot);
  let fanout = ring_fanout t msg in
  ring.ring_pending <- ring.ring_pending + fanout;
  t.sent <- t.sent + fanout

let broadcast t msg =
  match t.ring with
  | Some ring ->
    ring_push t ring ~delay:(chosen_delay t ~recipient:(-1) msg) msg
  | None ->
    for recipient = 0 to t.players - 1 do
      if recipient <> msg.sender then
        enqueue t ~recipient ~delay:(chosen_delay t ~recipient msg) msg
    done

let broadcast_all t ~delay msg =
  let delay = clamp_delay t delay in
  match t.ring with
  | Some ring -> ring_push t ring ~delay msg
  | None ->
    for recipient = 0 to t.players - 1 do
      if recipient <> msg.sender then enqueue t ~recipient ~delay msg
    done

let send_direct t ~recipient ~delay msg =
  if recipient < 0 || recipient >= t.players then
    invalid_arg "Network.send_direct: recipient out of range";
  enqueue t ~recipient ~delay:(clamp_delay t delay) msg

let deliver t ~recipient ~round =
  match t.inboxes.(recipient) with
  | None -> []
  | Some q -> Event_queue.pop_due q ~now:round

let queued t ~recipient =
  match t.inboxes.(recipient) with None -> 0 | Some q -> Event_queue.length q

let deliver_shared t ~round =
  match t.ring with
  | None -> []
  | Some ring ->
    if round <= ring.drained_through then []
    else begin
      (* Drain every round up to [round] in order.  Buckets only ever hold
         rounds within delta + 1 of the drain frontier, so a caller that
         skipped k >> delta rounds ahead still sees each message exactly
         once and in due order while the scan stays bounded by delta + 1
         slots — fast-forward is O(delta), not O(k). *)
      let acc = ref [] in
      let hi = min round (ring.drained_through + t.delta + 1) in
      for r = ring.drained_through + 1 to hi do
        let slot = r mod (t.delta + 1) in
        let due = List.rev ring.buckets.(slot) in
        ring.buckets.(slot) <- [];
        ring.ring_pending <-
          List.fold_left
            (fun p msg -> p - ring_fanout t msg)
            ring.ring_pending due;
        acc := List.rev_append due !acc
      done;
      ring.drained_through <- round;
      List.rev !acc
    end

(* Earliest round with a pending delivery strictly after [now]: the ring
   scan is bounded by delta + 1 slots (every pending due lies in
   (drained_through, drained_through + delta + 1]) and the direct lane is
   answered by the due index after dropping entries already delivered. *)
let next_due t ~now =
  let ring_due =
    match t.ring with
    | None -> max_int
    | Some ring ->
      let best = ref max_int in
      let r = ref (ring.drained_through + 1) in
      while !best = max_int && !r <= ring.drained_through + t.delta + 1 do
        if ring.buckets.(!r mod (t.delta + 1)) <> [] then best := !r;
        incr r
      done;
      if !best <= now then
        invalid_arg "Network.next_due: ring delivery already overdue";
      !best
  in
  let direct_due =
    ignore (Event_queue.drop_due t.due_index ~now);
    match Event_queue.peek_time t.due_index with Some d -> d | None -> max_int
  in
  let due = min ring_due direct_due in
  if due = max_int then None else Some due

let pending t =
  let ring_pending =
    match t.ring with None -> 0 | Some ring -> ring.ring_pending
  in
  ring_pending
  + Array.fold_left
      (fun acc -> function None -> acc | Some q -> acc + Event_queue.length q)
      0 t.inboxes

let messages_sent t = t.sent
