(** The asynchronous Δ-delay message layer.

    Capability ① of the paper's adversary: it may delay and reorder every
    message, per recipient and adaptively, by up to [delta] rounds, but can
    neither drop nor modify it.  The network enforces the [delta] cap
    regardless of what the delay policy asks for; delivery of a message
    sent at round [r] happens when the recipient processes round
    [r + chosen_delay] (with [chosen_delay >= 1]: a block mined in round
    [r] is never seen by others within round [r], matching the model where
    honest queries within one round are parallel). *)

type message = {
  sender : int;  (** miner index, or [-1] for the adversary's releases *)
  sent_round : int;
  blocks : Nakamoto_chain.Block.t list;  (** a chain segment, any order *)
}

type delay_policy =
  | Immediate  (** delay 1: next-round delivery, the synchronous baseline *)
  | Fixed of int  (** constant delay in [1, delta] (clamped) *)
  | Uniform_random  (** uniform on [1, delta], drawn per recipient *)
  | Maximal  (** always the full [delta] — the worst honest-facing case *)
  | Per_recipient of (recipient:int -> message -> int)
      (** adaptive adversarial choice, still clamped to [1, delta] *)

val recipient_independent : delay_policy -> bool
(** [recipient_independent policy] holds for [Immediate], [Fixed] and
    [Maximal]: the policies that draw nothing per recipient, so one
    delay stands for every recipient of a broadcast. *)

type t

val create : delta:int -> players:int -> policy:delay_policy ->
  rng:Nakamoto_prob.Rng.t -> t
(** [create ~delta ~players ~policy ~rng] builds an empty network.  The
    policy picks the lane of every {!broadcast} and {!broadcast_all}:
    - under a {!recipient_independent} policy the network keeps a Δ-ring,
      a shared ring of [delta + 1] per-round buckets.  A broadcast is one
      shared enqueue standing for [players - 1] deliveries (O(1)), read
      back once with {!deliver_shared};
    - under [Uniform_random] or [Per_recipient] there is no ring, and a
      broadcast is [players - 1] per-recipient enqueues, read back with
      {!deliver}.
    {!send_direct} always uses the per-recipient queues, so a consumer
    that needs one recipient's queue order merges the two lanes by
    [sent_round].  A recipient's inbox (its event queue) is created by
    the first queue-lane send to it, so a fresh network holds one empty
    slot per player, plus the ring's [delta + 1] buckets when it has a
    ring; a recipient never sent anything reads back as empty.
    @raise Invalid_argument if [delta < 1] or [players <= 0]. *)

val delta : t -> int

val broadcast : t -> message -> unit
(** [broadcast t msg] sends [msg] to every player except the sender, with
    per-recipient delays chosen by the policy (clamped to [[1, delta]]):
    one ring insertion under a recipient-independent policy, [players - 1]
    queue enqueues otherwise. *)

val broadcast_all : t -> delay:int -> message -> unit
(** [broadcast_all t ~delay msg] sends to every player except the sender
    at one explicit delay (clamped to [[1, delta]]) — the adversary's
    release-to-everyone, which is a broadcast in all but name.  It takes
    {!broadcast}'s lane: the ring when the network has one (keyed by
    absolute due round, so mixed delays coexist), per-recipient queues
    otherwise. *)

val send_direct : t -> recipient:int -> delay:int -> message -> unit
(** [send_direct t ~recipient ~delay msg] enqueues with an explicit delay
    (clamped to [[1, delta]]) — used by adversarial strategies that release
    different views to different players.
    @raise Invalid_argument if [recipient] is out of range. *)

val deliver : t -> recipient:int -> round:int -> message list
(** [deliver t ~recipient ~round] removes and returns the queue-lane
    messages due at or before [round] for [recipient], in due order.
    Ring-lane messages are not included — a consumer reads those once
    via {!deliver_shared} and fans them out itself. *)

val queued : t -> recipient:int -> int
(** [queued t ~recipient] counts the queue-lane messages still in flight
    to [recipient]. *)

val deliver_shared : t -> round:int -> message list
(** [deliver_shared t ~round] drains the ring buckets for every round up
    to and including [round] (in due order, send-stable within a round)
    and returns their messages.  Each message is returned exactly once;
    the caller routes it to every player except its sender.  Returns [[]]
    when the network has no ring or [round] was already drained. *)

val next_due : t -> now:int -> int option
(** [next_due t ~now] is the earliest round strictly after [now] at which
    some delivery is due — ring lane or direct queues — or [None] when
    nothing is in flight.  The ring side scans at most [delta + 1] slots;
    the direct side reads an index of queued due times in
    O(log pending).  Callers must have drained everything due at or
    before [now]: a still-pending ring due [<= now] raises
    [Invalid_argument]. *)

val pending : t -> int
(** [pending t] counts undelivered per-recipient deliveries: queued
    messages plus the fan-out of each undrained ring message
    ([players - 1] for a player sender, [players] for the adversary). *)

val messages_sent : t -> int
(** [messages_sent t] is the cumulative per-recipient delivery count —
    a ring broadcast counts its full fan-out, same as the queue lane
    would have enqueued. *)
