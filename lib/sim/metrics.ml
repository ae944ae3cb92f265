module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree
module Hash = Nakamoto_chain.Hash

type consistency_report = {
  truncate : int;
  pairs_checked : int;
  violations : int;
  worst_violation_depth : int;
}

module By_hash = Hashtbl.Make (struct
  type t = Hash.t

  let equal = Hash.equal
  let hash = Hash.hash
end)

(* A snapshot's tips collapsed to its distinct blocks, in order of first
   appearance, each with the number of honest players holding it.  The
   executors fill the slots of untouched miners with one physical block,
   so runs of [==] tips are counted without a hash lookup. *)
let distinct_tips (tips : Block.t array) =
  let seen = By_hash.create 8 in
  let order = ref [] in
  let n = Array.length tips in
  let i = ref 0 in
  while !i < n do
    let tip = tips.(!i) in
    let j = ref (!i + 1) in
    while !j < n && tips.(!j) == tip do
      incr j
    done;
    let run = !j - !i in
    (match By_hash.find_opt seen tip.hash with
    | Some count -> count := !count + run
    | None ->
      let count = ref run in
      By_hash.add seen tip.hash count;
      order := (tip, count) :: !order);
    i := !j
  done;
  Array.of_list (List.rev_map (fun (tip, count) -> (tip, !count)) !order)

(* [distinct_tips] of every snapshot, computed once per physical [tips]
   array: consecutive snapshots may share theirs. *)
let distinct_snapshots (snapshots : Execution.snapshot list) =
  let last = ref None in
  Array.of_list
    (List.map
       (fun (snap : Execution.snapshot) ->
         match !last with
         | Some (tips, distinct) when tips == snap.tips -> distinct
         | _ ->
           let distinct = distinct_tips snap.tips in
           last := Some (snap.tips, distinct);
           distinct)
       snapshots)

(* The meet (deepest common ancestor) of a snapshot's distinct tips. *)
let meet god distinct =
  if Array.length distinct = 0 then Block.genesis
  else
    Array.fold_left
      (fun meet (tip, _) ->
        let h = Block_tree.common_prefix_height god meet tip in
        Block_tree.ancestor_at_height god meet ~height:h)
      (fst distinct.(0)) distinct

(* Hash of every ancestor of [b], indexed by height — turns repeated
   "is X an ancestor of b" queries into array lookups. *)
let hash_chain god (b : Block.t) =
  let chain = Array.make (b.height + 1) b.hash in
  let rec fill (b : Block.t) =
    chain.(b.height) <- b.hash;
    if b.height > 0 then fill (Block_tree.find_exn god b.parent)
  in
  fill b;
  chain

let check_consistency ?truncate (result : Execution.result) =
  let truncate =
    match truncate with Some t -> t | None -> result.config.Config.truncate
  in
  if truncate < 0 then invalid_arg "Metrics.check_consistency: negative truncate";
  let god = result.god_view in
  let snaps = distinct_snapshots result.snapshots in
  let meets = Array.map (meet god) snaps in
  let meet_chains = Array.map (hash_chain god) meets in
  let pairs = ref 0 in
  let violations = ref 0 in
  let worst = ref 0 in
  Array.iteri
    (fun ri tips_r ->
      (* Each r-tip's height-[keep] ancestor is shared across all s.  A
         distinct tip stands for [count] players, each one (r, s, tip)
         triple of the definition. *)
      let truncated_tips =
        Array.map
          (fun ((tip : Block.t), count) ->
            let keep = tip.height - truncate in
            let cut =
              if keep <= 0 then None
              else Some (Block_tree.ancestor_at_height god tip ~height:keep)
            in
            (cut, count))
          tips_r
      in
      for si = ri to Array.length snaps - 1 do
        let meet_s = meets.(si) in
        let chain_s = meet_chains.(si) in
        Array.iter
          (fun (truncated, count) ->
            pairs := !pairs + count;
            (* Prefix of the meet covers every player j at s; the truncated
               r-chain is a prefix iff its hash sits at its height in the
               meet's ancestor chain. *)
            match truncated with
            | None -> ()
            | Some (cut : Block.t) ->
              let ok =
                cut.height <= meet_s.Block.height
                && Hash.equal chain_s.(cut.height) cut.hash
              in
              if not ok then begin
                violations := !violations + count;
                (* Depth of the failure: how far below the cut the chains
                   actually agree. *)
                let rec agreed (b : Block.t) =
                  if
                    b.height <= meet_s.Block.height
                    && Hash.equal chain_s.(b.height) b.hash
                  then b.height
                  else agreed (Block_tree.find_exn god b.parent)
                in
                let depth = cut.height - agreed cut in
                if depth > !worst then worst := depth
              end)
          truncated_tips
      done)
    snaps;
  {
    truncate;
    pairs_checked = !pairs;
    violations = !violations;
    worst_violation_depth = !worst;
  }

(* Equal tips diverge by 0, so only pairs of distinct tips can raise the
   maximum. *)
let max_disagreement (result : Execution.result) =
  let god = result.god_view in
  Array.fold_left
    (fun acc tips ->
      let worst = ref acc in
      Array.iteri
        (fun i (a, _) ->
          for j = i + 1 to Array.length tips - 1 do
            let d = Block_tree.divergence god a (fst tips.(j)) in
            if d > !worst then worst := d
          done)
        tips;
      !worst)
    0
    (distinct_snapshots result.snapshots)

type growth_report = { final_height : int; rounds : int; growth_rate : float }

let chain_growth (result : Execution.result) =
  let final_height =
    Array.fold_left
      (fun acc (tip : Block.t) -> min acc tip.height)
      max_int result.final_tips
  in
  let final_height = if final_height = max_int then 0 else final_height in
  let rounds = result.config.Config.rounds in
  {
    final_height;
    rounds;
    growth_rate =
      (if rounds = 0 then 0. else float_of_int final_height /. float_of_int rounds);
  }

let chain_quality (result : Execution.result) =
  if Array.length result.final_tips = 0 then 1.
  else Block_tree.honest_fraction_on_chain result.god_view result.final_tips.(0)

let agreed_prefix_height (result : Execution.result)
    (snap : Execution.snapshot) =
  (meet result.god_view (distinct_tips snap.tips)).Block.height
