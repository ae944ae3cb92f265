open Helpers
module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree
module Hash = Nakamoto_chain.Hash

let mine ?(miner_class = Block.Honest) ~parent ~miner ~round ~nonce () =
  Block.mine ~parent ~miner ~miner_class ~round ~nonce ~payload:""

(* Build a linear chain of [len] blocks on top of [parent]. *)
let extend tree ~parent ~miner ~start_round ~len =
  let rec go parent round left acc =
    if left = 0 then List.rev acc
    else begin
      let b = mine ~parent ~miner ~round ~nonce:left () in
      (match Block_tree.insert tree b with
      | `Inserted -> ()
      | `Duplicate | `Orphan -> Alcotest.fail "unexpected insert result");
      go b (round + 1) (left - 1) (b :: acc)
    end
  in
  go parent start_round len []

let test_create () =
  let t = Block_tree.create () in
  check_int "only genesis" 1 (Block_tree.block_count t);
  check_true "genesis present" (Block_tree.mem t Block.genesis.hash);
  check_true "best tip is genesis" (Block.is_genesis (Block_tree.best_tip t))

let test_insert_cases () =
  let t = Block_tree.create () in
  let b = mine ~parent:Block.genesis ~miner:0 ~round:1 ~nonce:0 () in
  check_true "insert" (Block_tree.insert t b = `Inserted);
  check_true "duplicate" (Block_tree.insert t b = `Duplicate);
  let orphan_parent = mine ~parent:b ~miner:0 ~round:2 ~nonce:0 () in
  let orphan = mine ~parent:orphan_parent ~miner:0 ~round:3 ~nonce:0 () in
  check_true "orphan rejected" (Block_tree.insert t orphan = `Orphan);
  check_false "orphan not stored" (Block_tree.mem t orphan.hash)

let test_insert_chain_sorts () =
  let t = Block_tree.create () in
  let staging = Block_tree.create () in
  let chain = extend staging ~parent:Block.genesis ~miner:1 ~start_round:1 ~len:5 in
  (* Deliver in reverse order: insert_chain must sort by height. *)
  check_int "all inserted" 5 (Block_tree.insert_chain t (List.rev chain));
  check_int "count" 6 (Block_tree.block_count t);
  check_int "repeat inserts nothing" 0 (Block_tree.insert_chain t chain)

let test_best_tip_longest () =
  let t = Block_tree.create () in
  let _short = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:2 in
  let long = extend t ~parent:Block.genesis ~miner:1 ~start_round:1 ~len:4 in
  check_true "longest wins"
    (Block.equal (Block_tree.best_tip t) (List.nth long 3))

let test_best_tip_tie_break () =
  let t = Block_tree.create () in
  (* Two height-1 blocks: adversarial mined earlier round vs honest later. *)
  let adv =
    mine ~miner_class:Block.Adversarial ~parent:Block.genesis ~miner:9 ~round:1
      ~nonce:0 ()
  in
  let honest = mine ~parent:Block.genesis ~miner:1 ~round:2 ~nonce:0 () in
  ignore (Block_tree.insert t adv);
  ignore (Block_tree.insert t honest);
  check_true "honest preferred at equal height"
    (Block.equal (Block_tree.best_tip t) honest);
  (* Among honest blocks, earlier round wins. *)
  let t2 = Block_tree.create () in
  let late = mine ~parent:Block.genesis ~miner:1 ~round:9 ~nonce:0 () in
  let early = mine ~parent:Block.genesis ~miner:2 ~round:3 ~nonce:0 () in
  ignore (Block_tree.insert t2 late);
  ignore (Block_tree.insert t2 early);
  check_true "earlier round preferred"
    (Block.equal (Block_tree.best_tip t2) early)

let test_first_seen_tie_break () =
  let t = Block_tree.create ~tie_break:Block_tree.First_seen () in
  let adv =
    mine ~miner_class:Block.Adversarial ~parent:Block.genesis ~miner:9 ~round:1
      ~nonce:0 ()
  in
  let honest = mine ~parent:Block.genesis ~miner:1 ~round:1 ~nonce:0 () in
  ignore (Block_tree.insert t adv);
  ignore (Block_tree.insert t honest);
  check_true "first seen wins the tie (even adversarial)"
    (Block.equal (Block_tree.best_tip t) adv);
  (* A strictly taller block still displaces. *)
  let taller = mine ~parent:honest ~miner:1 ~round:2 ~nonce:0 () in
  ignore (Block_tree.insert t taller);
  check_true "height still dominates" (Block.equal (Block_tree.best_tip t) taller);
  (* better reflects the instance's rule. *)
  check_false "equal height never better under first-seen"
    (Block_tree.better t honest adv);
  let d = Block_tree.create () in
  check_true "equal height can be better under prefer-honest"
    (Block_tree.better d honest adv)

let test_best_tip_insertion_order_independent () =
  (* The deterministic tie-break is what makes all honest views agree. *)
  let blocks =
    List.init 5 (fun i ->
        mine ~parent:Block.genesis ~miner:i ~round:(1 + (i mod 3)) ~nonce:i ())
  in
  let tip_of order =
    let t = Block_tree.create () in
    List.iter (fun b -> ignore (Block_tree.insert t b)) order;
    Block_tree.best_tip t
  in
  let reference = tip_of blocks in
  check_true "reversed order, same tip"
    (Block.equal reference (tip_of (List.rev blocks)))

let test_chain_to_genesis () =
  let t = Block_tree.create () in
  let chain = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:3 in
  let tip = List.nth chain 2 in
  let path = Block_tree.chain_to_genesis t tip in
  check_int "path length" 4 (List.length path);
  check_true "starts at genesis" (Block.is_genesis (List.hd path));
  check_true "ends at tip" (Block.equal (List.nth path 3) tip);
  let foreign = mine ~parent:tip ~miner:0 ~round:10 ~nonce:5 () in
  check_raises_invalid "unknown block" (fun () ->
      ignore (Block_tree.chain_to_genesis t foreign))

let test_ancestor_at_height () =
  let t = Block_tree.create () in
  let chain = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:5 in
  let tip = List.nth chain 4 in
  check_true "ancestor 3"
    (Block.equal (Block_tree.ancestor_at_height t tip ~height:3) (List.nth chain 2));
  check_true "ancestor 0 is genesis"
    (Block.is_genesis (Block_tree.ancestor_at_height t tip ~height:0));
  check_raises_invalid "too high" (fun () ->
      ignore (Block_tree.ancestor_at_height t tip ~height:9));
  check_raises_invalid "negative" (fun () ->
      ignore (Block_tree.ancestor_at_height t tip ~height:(-1)))

let test_prefix_predicates () =
  let t = Block_tree.create () in
  let chain = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:6 in
  let mid = List.nth chain 2 and tip = List.nth chain 5 in
  check_true "mid prefix of tip" (Block_tree.is_prefix t ~prefix:mid ~of_:tip);
  check_false "tip not prefix of mid" (Block_tree.is_prefix t ~prefix:tip ~of_:mid);
  check_true "self prefix" (Block_tree.is_prefix t ~prefix:tip ~of_:tip);
  (* A fork of equal height is not a prefix. *)
  let fork = extend t ~parent:mid ~miner:1 ~start_round:10 ~len:3 in
  let fork_tip = List.nth fork 2 in
  check_false "fork not prefix" (Block_tree.is_prefix t ~prefix:fork_tip ~of_:tip);
  check_true "common ancestor is prefix of both"
    (Block_tree.is_prefix t ~prefix:mid ~of_:fork_tip)

let test_prefix_within () =
  let t = Block_tree.create () in
  let chain = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:6 in
  let mid = List.nth chain 2 in
  let tip = List.nth chain 5 in
  let fork = extend t ~parent:mid ~miner:1 ~start_round:20 ~len:2 in
  let fork_tip = List.nth fork 1 in
  (* tip (h 6) vs fork_tip (h 5): they agree up to height 3. *)
  check_true "T=3 forgives the fork"
    (Block_tree.prefix_within t ~truncate:3 ~chain_r:tip ~chain_s:fork_tip);
  check_false "T=2 does not"
    (Block_tree.prefix_within t ~truncate:2 ~chain_r:tip ~chain_s:fork_tip);
  check_true "vacuous when truncate >= height"
    (Block_tree.prefix_within t ~truncate:6 ~chain_r:tip ~chain_s:Block.genesis);
  check_raises_invalid "negative truncate" (fun () ->
      ignore (Block_tree.prefix_within t ~truncate:(-1) ~chain_r:tip ~chain_s:tip))

let test_common_prefix_and_divergence () =
  let t = Block_tree.create () in
  let chain = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:4 in
  let mid = List.nth chain 1 in
  let fork = extend t ~parent:mid ~miner:1 ~start_round:10 ~len:5 in
  let a = List.nth chain 3 (* height 4 *) in
  let b = List.nth fork 4 (* height 7 *) in
  check_int "common prefix height" 2 (Block_tree.common_prefix_height t a b);
  check_int "divergence" 5 (Block_tree.divergence t a b);
  check_int "self divergence" 0 (Block_tree.divergence t a a);
  check_int "ancestor divergence counts the suffix" 2
    (Block_tree.divergence t mid a)

let test_honest_fraction () =
  let t = Block_tree.create () in
  let h1 = mine ~parent:Block.genesis ~miner:0 ~round:1 ~nonce:0 () in
  let a1 =
    mine ~miner_class:Block.Adversarial ~parent:h1 ~miner:9 ~round:2 ~nonce:0 ()
  in
  let h2 = mine ~parent:a1 ~miner:1 ~round:3 ~nonce:0 () in
  List.iter (fun b -> ignore (Block_tree.insert t b)) [ h1; a1; h2 ];
  close "2/3 honest" (2. /. 3.) (Block_tree.honest_fraction_on_chain t h2);
  close "genesis-only chain" 1.
    (Block_tree.honest_fraction_on_chain t Block.genesis)

let test_copy_independent () =
  let t = Block_tree.create () in
  let copy = Block_tree.copy t in
  let b = mine ~parent:Block.genesis ~miner:0 ~round:1 ~nonce:0 () in
  ignore (Block_tree.insert t b);
  check_int "original grew" 2 (Block_tree.block_count t);
  check_int "copy untouched" 1 (Block_tree.block_count copy)

let test_children_and_tips () =
  let t = Block_tree.create () in
  let a = mine ~parent:Block.genesis ~miner:0 ~round:1 ~nonce:0 () in
  let b = mine ~parent:Block.genesis ~miner:1 ~round:1 ~nonce:0 () in
  ignore (Block_tree.insert t a);
  ignore (Block_tree.insert t b);
  check_int "two children of genesis" 2
    (List.length (Block_tree.children t Block.genesis.hash));
  check_int "two tips" 2 (List.length (Block_tree.tips t));
  let count = ref 0 in
  Block_tree.iter_blocks t (fun _ -> incr count);
  check_int "iter visits all" 3 !count

(* A base holding genesis -> a1 -> a2 and an overlay made from it. *)
let base_and_overlay () =
  let base = Block_tree.create () in
  let chain = extend base ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:2 in
  (base, chain, Block_tree.overlay base)

let test_overlay_reads_fall_through () =
  let base, chain, o = base_and_overlay () in
  let a2 = List.nth chain 1 in
  check_int "overlay count" 3 (Block_tree.block_count o);
  check_true "best tip inherited" (Block.equal (Block_tree.best_tip o) a2);
  List.iter
    (fun (b : Block.t) ->
      check_true "mem falls through" (Block_tree.mem o b.hash);
      check_true "find falls through" (Block_tree.find o b.hash = Some b);
      check_true "find_exn falls through"
        (Block.equal (Block_tree.find_exn o b.hash) b))
    chain;
  check_int "chain walks cross into the base" 3
    (List.length (Block_tree.chain_to_genesis o a2));
  (* The base keeps growing after the overlay is made. *)
  let a3 = mine ~parent:a2 ~miner:0 ~round:3 ~nonce:0 () in
  ignore (Block_tree.insert base a3);
  check_true "later base blocks are visible" (Block_tree.mem o a3.hash);
  check_int "and counted" 4 (Block_tree.block_count o)

let test_overlay_inserts_stay_local () =
  let base, chain, o = base_and_overlay () in
  let a2 = List.nth chain 1 in
  let x = mine ~parent:a2 ~miner:1 ~round:3 ~nonce:0 () in
  check_true "inserted" (Block_tree.insert o x = `Inserted);
  check_true "best tip moves" (Block.equal (Block_tree.best_tip o) x);
  check_true "duplicate of a base block" (Block_tree.insert o a2 = `Duplicate);
  let gap = mine ~parent:x ~miner:1 ~round:4 ~nonce:0 () in
  let far = mine ~parent:gap ~miner:1 ~round:5 ~nonce:0 () in
  check_true "orphan" (Block_tree.insert o far = `Orphan);
  check_false "base never written" (Block_tree.mem base x.hash);
  check_int "base count" 3 (Block_tree.block_count base);
  check_true "base best tip" (Block.equal (Block_tree.best_tip base) a2);
  check_int "overlay count" 4 (Block_tree.block_count o)

let test_overlay_subsumed_and_copied () =
  let base, chain, o = base_and_overlay () in
  let a2 = List.nth chain 1 in
  let x = mine ~parent:a2 ~miner:1 ~round:3 ~nonce:0 () in
  ignore (Block_tree.insert o x);
  check_false "holds a block the base lacks" (Block_tree.subsumed_by o base);
  check_false "not an overlay of another tree"
    (Block_tree.subsumed_by o (Block_tree.create ()));
  check_false "a plain tree is no overlay" (Block_tree.subsumed_by base base);
  let snapshot = Block_tree.copy o in
  ignore (Block_tree.insert base x);
  check_true "the base caught up" (Block_tree.subsumed_by o base);
  (* x is now stored on both levels and still counted once. *)
  check_int "count" 4 (Block_tree.block_count o);
  let seen = ref 0 in
  Block_tree.iter_blocks o (fun _ -> incr seen);
  check_int "iter visits each block once" 4 !seen;
  check_int "one tip" 1 (List.length (Block_tree.tips o));
  check_int "one child of a2" 1 (List.length (Block_tree.children o a2.hash));
  (* A copy holds the overlay's whole block set and no longer reads the
     base. *)
  let y = mine ~parent:x ~miner:0 ~round:4 ~nonce:0 () in
  ignore (Block_tree.insert base y);
  check_int "copy count" 4 (Block_tree.block_count snapshot);
  check_true "copy has the overlay's block" (Block_tree.mem snapshot x.hash);
  check_false "copy does not see later base blocks"
    (Block_tree.mem snapshot y.hash)

let props =
  [
    prop ~count:60 "random trees: best tip maximizes height"
      Arbitrary.(
        list ~min_len:1 ~max_len:40
          (pair (int_range ~lo:0 ~hi:20 ()) (int_range ~lo:0 ~hi:4 ())))
      (fun choices ->
        let t = Block_tree.create () in
        let blocks = ref [| Block.genesis |] in
        List.iteri
          (fun i (pick, miner) ->
            let parent = !blocks.(pick mod Array.length !blocks) in
            let b = mine ~parent ~miner ~round:(i + 1) ~nonce:i () in
            match Block_tree.insert t b with
            | `Inserted -> blocks := Array.append !blocks [| b |]
            | `Duplicate | `Orphan -> ())
          choices;
        let best = Block_tree.best_tip t in
        Array.for_all (fun (b : Block.t) -> b.height <= best.Block.height) !blocks);
    prop ~count:60 "prefix_within is reflexive at any T"
      (Arbitrary.int_range ~lo:0 ~hi:10 ())
      (fun truncate ->
        let t = Block_tree.create () in
        let chain = extend t ~parent:Block.genesis ~miner:0 ~start_round:1 ~len:5 in
        let tip = List.nth chain 4 in
        Block_tree.prefix_within t ~truncate ~chain_r:tip ~chain_s:tip);
  ]

(* The executor's contract for an overlay: every block its base gains
   reaches the overlay first.  The overlay then agrees with a private copy
   fed the same blocks, best tip included, under either tie-break. *)
let overlay_props =
  [
    prop ~count:60 "overlay agrees with a copy fed the same blocks"
      Arbitrary.(
        pair bool
          (list ~min_len:1 ~max_len:40
             (triple (int_range ~lo:0 ~hi:20 ()) (int_range ~lo:0 ~hi:4 ())
                bool)))
      (fun (first_seen, choices) ->
        let tie_break =
          if first_seen then Block_tree.First_seen else Block_tree.Prefer_honest
        in
        let base = Block_tree.create ~tie_break () in
        let o = Block_tree.overlay base in
        let copy = Block_tree.copy base in
        let blocks = ref [| Block.genesis |] in
        List.iteri
          (fun i (pick, miner, shared) ->
            let parent = !blocks.(pick mod Array.length !blocks) in
            let miner_class =
              if miner = 4 then Block.Adversarial else Block.Honest
            in
            let b =
              mine ~miner_class ~parent ~miner ~round:(i + 1) ~nonce:i ()
            in
            let r = Block_tree.insert o b in
            if r <> Block_tree.insert copy b then
              failwith "insert results differ";
            blocks := Array.append !blocks [| b |];
            if shared then ignore (Block_tree.insert base b))
          choices;
        Block.equal (Block_tree.best_tip o) (Block_tree.best_tip copy)
        && Block_tree.block_count o = Block_tree.block_count copy
        && Array.for_all
             (fun (b : Block.t) ->
               Block_tree.mem o b.hash = Block_tree.mem copy b.hash)
             !blocks);
  ]

let suite =
  [
    case "create" test_create;
    case "insert cases" test_insert_cases;
    case "insert_chain sorts by height" test_insert_chain_sorts;
    case "best tip longest" test_best_tip_longest;
    case "best tip tie-break" test_best_tip_tie_break;
    case "first-seen tie-break" test_first_seen_tie_break;
    case "best tip order independence" test_best_tip_insertion_order_independent;
    case "chain_to_genesis" test_chain_to_genesis;
    case "ancestor_at_height" test_ancestor_at_height;
    case "prefix predicates" test_prefix_predicates;
    case "prefix_within (Definition 1)" test_prefix_within;
    case "common prefix / divergence" test_common_prefix_and_divergence;
    case "honest fraction (chain quality)" test_honest_fraction;
    case "copy independence" test_copy_independent;
    case "children and tips" test_children_and_tips;
  ]
  @ props
  @ [
      case "overlay reads fall through" test_overlay_reads_fall_through;
      case "overlay inserts stay local" test_overlay_inserts_stay_local;
      case "overlay subsumption and copy" test_overlay_subsumed_and_copied;
    ]
  @ overlay_props
