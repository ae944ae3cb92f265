(** The proof-of-work oracle of Section III.

    The model gives every player access to a random function
    [H : {0,1}* -> {0,1}^kappa] with two entry points: [H(x)] (costly —
    one query per honest player per round, [q] sequential queries for the
    adversary) and the free verifier [H.ver(x, y)].  A "proof of work" for
    parent [h-1] and message [m] is an [eta] with
    [H(h-1, eta, m) <= D_p], the threshold set so a query succeeds with
    probability [p].

    This module realizes that oracle with the SplitMix64-mixed 64-bit
    digest: a query digests [(seed, parent, miner, round, query index)]
    and succeeds iff the digest, read as a uniform 64-bit integer, falls
    below [threshold p].  Success is thus an independent Bernoulli(p) per
    distinct query — exactly the law the analysis assumes — while
    remaining deterministic (replayable) and verifiable by anyone holding
    the oracle seed.

    Cost: a query is one {!Hash.keyed_below} call, 16-20 ns on a 2-vCPU
    x86-64 guest.  A miss allocates nothing; a hit allocates its proof,
    13 words. *)

type t
(** An oracle instance (the shared random function). *)

type proof = private {
  parent : Hash.t;
  miner : int;
  round : int;
  query_index : int;  (** which of the miner's queries this round *)
  digest : Hash.t;  (** the winning H-output *)
}

val create : seed:int64 -> p:float -> t
(** [create ~seed ~p] fixes the random function and the hardness.
    @raise Invalid_argument unless [0. < p && p < 1.]. *)

val hardness : t -> float

val threshold : t -> int64
(** The difficulty target [D_p] as an unsigned 64-bit bound; a query
    succeeds iff its digest (unsigned) is strictly below it.
    [threshold] / 2^64 differs from [p] by less than 2^-53. *)

val query : t -> parent:Hash.t -> miner:int -> round:int -> query_index:int ->
  proof option
(** [query t ~parent ~miner ~round ~query_index] is one H-query: [Some
    proof] iff the digest beats the target.  Distinct [(parent, miner,
    round, query_index)] tuples are independent Bernoulli(p) events;
    repeating a query returns the same answer (it is a function, not a
    sampler).
    @raise Invalid_argument on negative [round] or [query_index], or
    [miner < -1] ([-1] is the adversary's mining identity). *)

val verify : t -> proof -> bool
(** [verify t proof] is [H.ver]: recompute the digest and check it beats
    the target.  Free (the model charges only for [H]). *)

val successes : t -> parent:Hash.t -> miner:int -> round:int ->
  queries:int -> int
(** [successes t ~parent ~miner ~round ~queries] is
    [List.length (success_count t ...)] without building the proofs: the
    allocation-free counting loop for callers (the executor's adversary
    phase) that only need how many of the [queries] sequential H-queries
    won.  @raise Invalid_argument like {!query}. *)

val success_count : t -> parent:Hash.t -> miner:int -> round:int ->
  queries:int -> proof list
(** [success_count t ~parent ~miner ~round ~queries] runs [queries]
    sequential queries (indices [0 .. queries-1]) and returns the winning
    proofs — the adversary's per-round interface.  Its length is
    [binomial(queries, p)]-distributed across rounds. *)
