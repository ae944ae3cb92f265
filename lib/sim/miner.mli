(** An honest miner's local state: block view, orphan buffer, chain rule.

    An honest miner follows the protocol exactly: it accepts every block it
    receives, holds those whose parents it has not yet seen in an orphan
    buffer (the network never loses a message, so the parent always
    arrives within [Delta] rounds), and mines on the tip of the longest
    chain in its view. *)

type t

val create : ?tie_break:Nakamoto_chain.Block_tree.tie_break -> id:int -> unit -> t
(** [create ~id] builds a miner whose view contains only genesis;
    [tie_break] (default [Prefer_honest]) is the chain-selection rule its
    view applies to equal-height ties. *)

val id : t -> int

val clone : t -> id:int -> t
(** [clone t ~id] is a miner under a new identity whose view starts as
    [t]'s (tree, orphan buffer and best tip).  Its tree is a
    {!Nakamoto_chain.Block_tree.overlay} of [t]'s: the clone reads [t]'s
    blocks and stores only what it receives beyond them, and it never
    writes [t].  Its view stays exact while every block [t] gains reaches
    the clone first.  The executor materializes a miner from the shared
    crowd view this way when it wins a block or is targeted by a direct
    send, and every miner this way before the first round when the delay
    policy depends on the recipient. *)

val folds_into : t -> crowd:t -> bool
(** [folds_into t ~crowd] holds when [t], a {!clone} of [crowd], has come
    back to [crowd]'s exact view: neither has a buffered orphan, their
    best tips are equal, and every block [t] stored itself is now in
    [crowd]'s tree.  Fed the same blocks from then on, the two stay
    equal. *)

val receive : t -> Nakamoto_chain.Block.t list -> unit
(** [receive t blocks] adds blocks to the view, draining any orphans that
    became connectable. *)

val best_tip : t -> Nakamoto_chain.Block.t
(** [best_tip t] is the head of the longest chain currently known. *)

val chain_length : t -> int
(** [chain_length t] is [best_tip t]'s height. *)

val extend_tip :
  t -> round:int -> nonce:int -> Nakamoto_chain.Block.t
(** [extend_tip t ~round ~nonce] mines one block on the current best tip,
    inserts it into the view, and returns it.  Called only when the
    miner's single [H]-query for the round succeeded. *)

val view : t -> Nakamoto_chain.Block_tree.t
(** [view t] is the miner's block tree (shared, not a copy — read only). *)

val orphan_count : t -> int
(** [orphan_count t] is the number of buffered parentless blocks. *)
