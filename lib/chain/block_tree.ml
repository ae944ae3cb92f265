module Table = Hashtbl.Make (struct
  type t = Hash.t

  let equal = Hash.equal
  let hash = Hash.hash
end)

type tie_break = Prefer_honest | First_seen

type t = {
  blocks : Block.t Table.t;  (** the blocks this tree stored itself *)
  base : t option;  (** an overlay's fall-through tree *)
  tie_break : tie_break;
  mutable best : Block.t;  (** cached longest-chain head *)
}

(* Deterministic preference among equal-height candidates: honest blocks
   first, then earlier round, then smaller hash.  Every honest player
   holding the same block set therefore selects the same best chain. *)
let tip_preference (a : Block.t) (b : Block.t) =
  let class_rank = function Block.Honest -> 0 | Block.Adversarial -> 1 in
  let c = compare (class_rank a.miner_class) (class_rank b.miner_class) in
  if c <> 0 then c
  else
    let c = compare a.round b.round in
    if c <> 0 then c else Hash.compare a.hash b.hash

(* Since blocks are never removed, the best tip can only be displaced by a
   newly inserted block it prefers; and because a child always has greater
   height than its parent, the argmax over all blocks is a leaf. *)
let better t (candidate : Block.t) (incumbent : Block.t) =
  candidate.height > incumbent.height
  ||
  match t.tie_break with
  | First_seen -> false
  | Prefer_honest ->
    candidate.height = incumbent.height && tip_preference candidate incumbent < 0

(* 256 buckets is the largest array the runtime still allocates in the
   minor heap (Max_young_wosize): a tree of up to 512 blocks never
   resizes, where a 1024-bucket table was a major allocation that also
   forced extra minor collections.  An {!overlay} starts at 8 buckets: it
   holds only the few blocks its miner has and its base lacks.  No caller
   depends on the iteration order. *)
let create ?(tie_break = Prefer_honest) () =
  let t =
    { blocks = Table.create 256; base = None; tie_break; best = Block.genesis }
  in
  Table.replace t.blocks Block.genesis.hash Block.genesis;
  t

let overlay base =
  {
    blocks = Table.create 8;
    base = Some base;
    tie_break = base.tie_break;
    best = base.best;
  }

let rec mem t h =
  Table.mem t.blocks h
  || match t.base with None -> false | Some base -> mem base h

let rec find t h =
  match Table.find_opt t.blocks h with
  | Some _ as found -> found
  | None -> ( match t.base with None -> None | Some base -> find base h)

let rec find_exn t h =
  match t.base with
  | None -> Table.find t.blocks h
  | Some base -> (
    match Table.find_opt t.blocks h with
    | Some b -> b
    | None -> find_exn base h)

(* An overlay may store a block its base gained later too, so its own
   table is read minus what the base already holds. *)
let rec iter_blocks t f =
  match t.base with
  | None -> Table.iter (fun _ b -> f b) t.blocks
  | Some base ->
    iter_blocks base f;
    Table.iter (fun h b -> if not (mem base h) then f b) t.blocks

let block_count t =
  match t.base with
  | None -> Table.length t.blocks
  | Some _ ->
    let count = ref 0 in
    iter_blocks t (fun _ -> incr count);
    !count

let subsumed_by t base =
  match t.base with
  | Some b when b == base ->
    Table.fold (fun h _ ok -> ok && mem base h) t.blocks true
  | Some _ | None -> false

let copy t =
  let blocks =
    match t.base with
    | None -> Table.copy t.blocks
    | Some _ ->
      let blocks = Table.create 256 in
      iter_blocks t (fun b -> Table.replace blocks b.hash b);
      blocks
  in
  { blocks; base = None; tie_break = t.tie_break; best = t.best }

let insert t (b : Block.t) =
  if mem t b.hash then `Duplicate
  else if not (mem t b.parent) then `Orphan
  else begin
    Table.add t.blocks b.hash b;
    if better t b t.best then t.best <- b;
    `Inserted
  end

let insert_chain t blocks =
  let sorted =
    List.sort (fun (a : Block.t) (b : Block.t) -> compare a.height b.height) blocks
  in
  List.fold_left
    (fun acc b -> match insert t b with `Inserted -> acc + 1 | `Duplicate | `Orphan -> acc)
    0 sorted

(* Nothing reads the tree by parent on a hot path, so the child relation
   is not indexed: both of these scan the block set. *)
let children t h =
  let kids = ref [] in
  iter_blocks t (fun b ->
      if (not (Block.is_genesis b)) && Hash.equal b.parent h then
        kids := b :: !kids);
  !kids

let tips t =
  let parents = Table.create 256 in
  iter_blocks t (fun b ->
      if not (Block.is_genesis b) then Table.replace parents b.parent ());
  let leaves = ref [] in
  iter_blocks t (fun b ->
      if not (Table.mem parents b.hash) then leaves := b :: !leaves);
  !leaves

let best_tip t = t.best

let chain_to_genesis t (b : Block.t) =
  if not (mem t b.hash) then invalid_arg "Block_tree.chain_to_genesis: unknown block";
  let rec walk acc (b : Block.t) =
    if Block.is_genesis b then b :: acc
    else walk (b :: acc) (find_exn t b.parent)
  in
  walk [] b

let ancestor_at_height t (b : Block.t) ~height =
  if height < 0 || height > b.height then
    invalid_arg "Block_tree.ancestor_at_height: height outside [0, b.height]";
  if not (mem t b.hash) then
    invalid_arg "Block_tree.ancestor_at_height: unknown block";
  let rec walk (b : Block.t) =
    if b.height = height then b else walk (find_exn t b.parent)
  in
  walk b

let is_prefix t ~prefix ~of_ =
  let open Block in
  if prefix.height > of_.height then false
  else equal prefix (ancestor_at_height t of_ ~height:prefix.height)

let prefix_within t ~truncate ~chain_r ~chain_s =
  if truncate < 0 then invalid_arg "Block_tree.prefix_within: negative truncate";
  let open Block in
  let keep = chain_r.height - truncate in
  if keep <= 0 then true
  else if keep > chain_s.height then false
  else
    let truncated = ancestor_at_height t chain_r ~height:keep in
    is_prefix t ~prefix:truncated ~of_:chain_s

let common_prefix_height t a b =
  let open Block in
  let rec descend (a : Block.t) (b : Block.t) =
    if equal a b then a.height
    else if a.height > b.height then descend (find_exn t a.parent) b
    else if b.height > a.height then descend a (find_exn t b.parent)
    else descend (find_exn t a.parent) (find_exn t b.parent)
  in
  descend a b

let divergence t a b =
  let open Block in
  max a.height b.height - common_prefix_height t a b

let honest_fraction_on_chain t b =
  match chain_to_genesis t b with
  | [ _genesis ] -> 1.
  | chain ->
    let non_genesis = List.filter (fun b -> not (Block.is_genesis b)) chain in
    let honest =
      List.length
        (List.filter
           (fun (b : Block.t) -> b.miner_class = Block.Honest)
           non_genesis)
    in
    float_of_int honest /. float_of_int (List.length non_genesis)

