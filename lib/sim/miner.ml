module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree

type t = {
  id : int;
  tree : Block_tree.t;
  mutable orphans : Block.t list;
  mutable best : Block.t;
}

let create ?tie_break ~id () =
  {
    id;
    tree = Block_tree.create ?tie_break ();
    orphans = [];
    best = Block.genesis;
  }

let id t = t.id

let clone t ~id =
  {
    id;
    tree = Block_tree.overlay t.tree;
    orphans = t.orphans;
    best = t.best;
  }

let folds_into t ~crowd =
  t.orphans = [] && crowd.orphans = []
  && Block.equal t.best crowd.best
  && Block_tree.subsumed_by t.tree crowd.tree

let refresh_best t = t.best <- Block_tree.best_tip t.tree

(* Repeatedly retry orphans until a fixed point: a delivered batch may
   connect a whole dangling subtree at once. *)
let drain_orphans t =
  let progress = ref true in
  while !progress && t.orphans <> [] do
    let still_orphans, inserted =
      List.fold_left
        (fun (orphans, inserted) b ->
          match Block_tree.insert t.tree b with
          | `Inserted | `Duplicate -> (orphans, inserted + 1)
          | `Orphan -> (b :: orphans, inserted))
        ([], 0) t.orphans
    in
    t.orphans <- still_orphans;
    progress := inserted > 0
  done

let receive t blocks =
  let sorted =
    List.sort (fun (a : Block.t) (b : Block.t) -> compare a.height b.height) blocks
  in
  List.iter
    (fun b ->
      match Block_tree.insert t.tree b with
      | `Inserted | `Duplicate -> ()
      | `Orphan -> t.orphans <- b :: t.orphans)
    sorted;
  drain_orphans t;
  refresh_best t

let best_tip t = t.best
let chain_length t = t.best.Block.height

let extend_tip t ~round ~nonce =
  let block =
    Block.mine ~parent:t.best ~miner:t.id ~miner_class:Block.Honest ~round
      ~nonce ~payload:""
  in
  (match Block_tree.insert t.tree block with
  | `Inserted -> ()
  | `Duplicate | `Orphan -> assert false);
  refresh_best t;
  block

let view t = t.tree
let orphan_count t = List.length t.orphans
