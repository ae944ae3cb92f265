module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree

type audience = All_honest | Only of int list
type release = { audience : audience; delay : int; blocks : Block.t list }

type strategy =
  | Idle
  | Private_chain of { reorg_target : int }
  | Balance of { group_boundary : int }
  | Selfish_mining

type t = {
  strategy : strategy;
  honest_count : int;
  god : Block_tree.t;  (** every block ever mined, withheld included *)
  public : Block_tree.t;  (** honest blocks + released adversarial blocks *)
  mutable private_tip : Block.t;
  mutable fork_base : Block.t;
  mutable withheld : Block.t list;
  mutable branch_a : Block.t;  (** balance: tip pushed to group A *)
  mutable branch_b : Block.t;
  mutable mined : int;
  mutable reorgs : int;
  mutable nonce : int;
}

let check_fit strategy ~honest_count =
  match strategy with
  | Private_chain { reorg_target } ->
    if reorg_target < 1 then
      invalid_arg
        (Printf.sprintf "Adversary: reorg_target %d must be >= 1" reorg_target)
  | Balance { group_boundary } ->
    if group_boundary < 1 || group_boundary >= honest_count then
      invalid_arg
        (Printf.sprintf
           "Adversary: balance group_boundary %d outside [1, honest_count - \
            1] = [1, %d]"
           group_boundary (honest_count - 1))
  | Idle | Selfish_mining -> ()

let create ~strategy ~honest_count =
  if honest_count <= 0 then
    invalid_arg "Adversary.create: honest_count must be positive";
  check_fit strategy ~honest_count;
  {
    strategy;
    honest_count;
    god = Block_tree.create ();
    public = Block_tree.create ();
    private_tip = Block.genesis;
    fork_base = Block.genesis;
    withheld = [];
    branch_a = Block.genesis;
    branch_b = Block.genesis;
    mined = 0;
    reorgs = 0;
    nonce = 0;
  }

let strategy t = t.strategy

let group_of t (b : Block.t) =
  match t.strategy with
  | Balance { group_boundary } when b.miner >= 0 && b.miner < group_boundary ->
    `A
  | Balance _ -> `B
  | Idle | Private_chain _ | Selfish_mining -> `A

let observe t blocks =
  List.iter
    (fun (b : Block.t) ->
      ignore (Block_tree.insert t.god b);
      ignore (Block_tree.insert t.public b);
      match t.strategy with
      | Balance _ ->
        (* Track the branch each honest group is extending. *)
        (match group_of t b with
        | `A -> if b.height > t.branch_a.Block.height then t.branch_a <- b
        | `B -> if b.height > t.branch_b.Block.height then t.branch_b <- b)
      | Idle | Private_chain _ | Selfish_mining -> ())
    blocks

let mine_on t parent ~round =
  t.nonce <- t.nonce + 1;
  let b =
    Block.mine ~parent ~miner:t.honest_count ~miner_class:Block.Adversarial
      ~round ~nonce:t.nonce ~payload:""
  in
  (match Block_tree.insert t.god b with
  | `Inserted -> ()
  | `Duplicate | `Orphan -> assert false);
  t.mined <- t.mined + 1;
  b

let act_private t ~round ~successes ~reorg_target =
  let public_best = Block_tree.best_tip t.public in
  (* Lost the race: adopt the public tip and fork anew. *)
  if
    t.private_tip.Block.height <= public_best.Block.height
    && not (Block.equal t.private_tip public_best)
  then begin
    t.private_tip <- public_best;
    t.fork_base <- public_best;
    t.withheld <- []
  end;
  for _ = 1 to successes do
    let b = mine_on t t.private_tip ~round in
    t.private_tip <- b;
    t.withheld <- b :: t.withheld
  done;
  let public_best = Block_tree.best_tip t.public in
  let public_lead = public_best.Block.height - t.fork_base.Block.height in
  if
    t.withheld <> []
    && t.private_tip.Block.height > public_best.Block.height
    && public_lead >= reorg_target
  then begin
    (* Release: every honest player reorgs at least [public_lead] deep. *)
    let blocks = List.rev t.withheld in
    List.iter (fun b -> ignore (Block_tree.insert t.public b)) blocks;
    t.withheld <- [];
    t.fork_base <- t.private_tip;
    t.reorgs <- t.reorgs + 1;
    [ { audience = All_honest; delay = 1; blocks } ]
  end
  else []

let act_balance t ~round ~successes ~group_boundary =
  let group_a = List.init group_boundary Fun.id in
  let group_b =
    List.init (t.honest_count - group_boundary) (fun i -> group_boundary + i)
  in
  let releases = ref [] in
  for _ = 1 to successes do
    let target_a = t.branch_a.Block.height <= t.branch_b.Block.height in
    let parent = if target_a then t.branch_a else t.branch_b in
    let b = mine_on t parent ~round in
    ignore (Block_tree.insert t.public b);
    if target_a then t.branch_a <- b else t.branch_b <- b;
    let near, far = if target_a then (group_a, group_b) else (group_b, group_a) in
    releases :=
      { audience = Only far; delay = max_int; blocks = [ b ] }
      :: { audience = Only near; delay = 1; blocks = [ b ] }
      :: !releases
  done;
  List.rev !releases

(* Eyal-Sirer selfish mining (gamma = 0 under our honest-preferring
   tie-break).  The lead walk runs over the withheld branch:
   - a success extends the private branch silently;
   - when the public chain ties the private tip, publish the whole branch
     (the race state: our blocks lose height ties, so winning requires
     mining the next block first — which the adversary attempts by staying
     on its own tip);
   - when the public chain passes the private tip, abandon and re-fork
     from the public best;
   - when the public chain comes within one of a lead >= 2, publish
     everything and bank the whole branch. *)
let act_selfish t ~round ~successes =
  let publish () =
    match t.withheld with
    | [] -> []
    | withheld ->
      let blocks = List.rev withheld in
      List.iter (fun b -> ignore (Block_tree.insert t.public b)) blocks;
      t.withheld <- [];
      t.fork_base <- t.private_tip;
      t.reorgs <- t.reorgs + 1;
      [ { audience = All_honest; delay = 1; blocks } ]
  in
  (* React to honest progress since the last round. *)
  let public_best = Block_tree.best_tip t.public in
  let lead = t.private_tip.Block.height - public_best.Block.height in
  let releases =
    if t.withheld = [] then begin
      (* No private branch: follow the public tip. *)
      t.private_tip <- public_best;
      t.fork_base <- public_best;
      []
    end
    else if lead < 0 then begin
      (* Passed: abandon the branch. *)
      t.private_tip <- public_best;
      t.fork_base <- public_best;
      t.withheld <- [];
      []
    end
    else if lead = 0 then
      (* Tied: race by publishing the branch (gamma = 0 -> ties lose, but
         a further private success on top wins by height). *)
      publish ()
    else if lead = 1 && t.private_tip.Block.height - t.fork_base.Block.height >= 2
    then
      (* The classic "lead shrank to 1": bank everything. *)
      publish ()
    else []
  in
  for _ = 1 to successes do
    let b = mine_on t t.private_tip ~round in
    t.private_tip <- b;
    t.withheld <- b :: t.withheld
  done;
  releases

let act t ~round ~successes =
  if round < 0 || successes < 0 then invalid_arg "Adversary.act: negative input";
  match t.strategy with
  | Idle -> []
  | Private_chain { reorg_target } -> act_private t ~round ~successes ~reorg_target
  | Balance { group_boundary } -> act_balance t ~round ~successes ~group_boundary
  | Selfish_mining -> act_selfish t ~round ~successes

(* Every strategy is event-driven: with no successes and no observation
   since the previous [act], a further [act ~successes:0] can only re-run
   the (idempotent) normalization it already ran and can never schedule a
   release — releases require either fresh honest progress (delivered via
   [observe] at a simulated round) or fresh adversarial blocks.  One real
   [act] call at the head of the span both performs that normalization and
   verifies the claim at run time, so a future time-dependent strategy
   fails loudly here instead of silently losing its releases. *)
let advance_empty t ~round ~rounds =
  if round < 0 || rounds < 0 then
    invalid_arg "Adversary.advance_empty: negative input";
  if rounds > 0 then
    match act t ~round ~successes:0 with
    | [] -> ()
    | _ :: _ ->
      failwith
        "Adversary.advance_empty: strategy released during an empty span"

let delay_policy_for strategy ~delta ~honest_count:_ =
  match strategy with
  | Idle | Selfish_mining -> Nakamoto_net.Network.Immediate
  | Private_chain _ -> Nakamoto_net.Network.Maximal
  | Balance { group_boundary } ->
    let group i = if i < group_boundary then `A else `B in
    Nakamoto_net.Network.Per_recipient
      (fun ~recipient (msg : Nakamoto_net.Network.message) ->
        if msg.sender < 0 then 1
        else if group msg.sender = group recipient then 1
        else delta)

let view t = t.god

let private_tip t =
  match t.strategy with
  | Idle -> Block_tree.best_tip t.public
  | Private_chain _ | Selfish_mining -> t.private_tip
  | Balance _ ->
    if t.branch_a.Block.height <= t.branch_b.Block.height then t.branch_a
    else t.branch_b

let blocks_mined t = t.mined
let reorgs_caused t = t.reorgs
