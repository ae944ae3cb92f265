(** A store of blocks forming a tree rooted at genesis.

    Each miner's view of the world is a block tree plus the longest-chain
    selection rule.  The consistency property (Definition 1) is decided
    here: [prefix_within] implements "all but the last T blocks of chain_r
    is a prefix of chain_s". *)

type t

type tie_break =
  | Prefer_honest
      (** equal-height ties go to the (honest-first, earlier-round,
          smaller-hash) block — deterministic across all players, which
          denies a block-withholding attacker every race (the Eyal–Sirer
          [gamma = 0] regime) *)
  | First_seen
      (** equal-height ties go to the incumbent: a player never switches
          to a chain of the same length.  Races are then decided by
          arrival order, so a withholding attacker wins the share of the
          network its release reaches first ([gamma > 0]) *)

val create : ?tie_break:tie_break -> unit -> t
(** [create ()] is a tree containing only {!Block.genesis}; [tie_break]
    defaults to [Prefer_honest]. *)

val copy : t -> t
(** [copy t] is an independent snapshot (blocks are immutable and shared);
    a copy of an {!overlay} holds the overlay's whole block set and no
    longer reads its base. *)

val overlay : t -> t
(** [overlay base] is a tree that starts with [base]'s block set and best
    tip.  Reads fall through to [base]; inserts stay in the overlay, and
    it never writes [base].  [base] may keep growing: the overlay's block
    set is its own blocks plus [base]'s current ones.  Its {!best_tip}
    tracks its own inserts only, so it stays the best tip of that union
    while every block [base] gains is inserted into the overlay first. *)

val subsumed_by : t -> t -> bool
(** [subsumed_by t base] holds when [t] is an {!overlay} of [base] and
    every block it stored itself is now in [base] too: the two hold the
    same block set.  O(blocks stored in the overlay). *)

val block_count : t -> int
(** [block_count t] includes genesis. *)

val mem : t -> Hash.t -> bool
val find : t -> Hash.t -> Block.t option
val find_exn : t -> Hash.t -> Block.t
(** @raise Not_found when absent. *)

val insert : t -> Block.t -> [ `Inserted | `Duplicate | `Orphan ]
(** [insert t b] adds [b] if its parent is present.  [`Orphan] blocks are
    not stored — the caller (the network layer delivers blocks in order
    along each chain, and publishers always send full chains) retries or
    buffers.  Inserting an existing hash is a no-op [`Duplicate]. *)

val insert_chain : t -> Block.t list -> int
(** [insert_chain t blocks] inserts blocks in order of increasing height
    (sorting internally), returning the number newly inserted.  This is the
    "receive a chain from the network" operation: any block whose parent is
    unknown even after the whole batch is ignored. *)

val children : t -> Hash.t -> Block.t list
(** [children t h] lists the blocks whose parent is [h].  O(blocks): the
    tree keeps no child index. *)

val tips : t -> Block.t list
(** [tips t] lists the leaves of the tree.  O(blocks). *)

val best_tip : t -> Block.t
(** [best_tip t] is the head of the longest chain, ties resolved by the
    tree's {!tie_break} rule.  O(1): the tree caches the best tip across
    insertions. *)

val better : t -> Block.t -> Block.t -> bool
(** [better t candidate incumbent] is the strict chain-selection order
    used by {!best_tip}: strictly higher, or (under [Prefer_honest])
    equal height and preferred by the deterministic triple. *)

val chain_to_genesis : t -> Block.t -> Block.t list
(** [chain_to_genesis t b] is the path [genesis; ...; b] (genesis first).
    @raise Invalid_argument if [b] is not in the tree. *)

val ancestor_at_height : t -> Block.t -> height:int -> Block.t
(** [ancestor_at_height t b ~height] walks up from [b].
    @raise Invalid_argument if [height] is negative, exceeds [b.height], or
    [b] is not in the tree. *)

val is_prefix : t -> prefix:Block.t -> of_:Block.t -> bool
(** [is_prefix t ~prefix ~of_] holds iff the chain ending at [prefix] is an
    ancestor-or-equal of the chain ending at [of_]. *)

val prefix_within : t -> truncate:int -> chain_r:Block.t -> chain_s:Block.t -> bool
(** [prefix_within t ~truncate ~chain_r ~chain_s] is Definition 1's
    predicate: all but the last [truncate] blocks of the chain ending at
    [chain_r] form a prefix of the chain ending at [chain_s].  When
    [chain_r.height <= truncate] this is vacuously true.
    @raise Invalid_argument if [truncate < 0]. *)

val common_prefix_height : t -> Block.t -> Block.t -> int
(** [common_prefix_height t a b] is the height of the deepest common
    ancestor of [a] and [b]. *)

val divergence : t -> Block.t -> Block.t -> int
(** [divergence t a b] is [max (height a, height b) - common_prefix_height],
    the number of blocks that would have to be rolled back to reconcile the
    two chains — the "reorg depth" reported by the attack experiments. *)

val honest_fraction_on_chain : t -> Block.t -> float
(** [honest_fraction_on_chain t b] is the fraction of honest-mined blocks
    among the non-genesis blocks of the chain ending at [b] — the chain
    quality statistic.  Returns [1.] for a genesis-only chain. *)

val iter_blocks : t -> (Block.t -> unit) -> unit
(** [iter_blocks t f] visits every stored block in unspecified order. *)
