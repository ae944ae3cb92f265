module Rng = Nakamoto_prob.Rng
module Params = Nakamoto_core.Params
module Scenarios = Nakamoto_sim.Scenarios
module Config = Nakamoto_sim.Config
module Adversary = Nakamoto_sim.Adversary
module Network = Nakamoto_net.Network
module Block_tree = Nakamoto_chain.Block_tree

let params_print p = Format.asprintf "%a" Params.pp p

let params =
  Arbitrary.make ~print:params_print (fun rng ->
      let n = Gen.log_float_range ~lo:4. ~hi:1e6 rng in
      let delta = Gen.log_float_range ~lo:1. ~hi:1e4 rng in
      let nu = Gen.float_range ~lo:0.01 ~hi:0.49 rng in
      let c = Gen.log_float_range ~lo:0.3 ~hi:60. rng in
      Params.of_c ~n ~delta ~nu ~c)

let explicit_chain_point ~delta_max =
  if delta_max < 1 || delta_max > 6 then
    invalid_arg "Domain_gen.explicit_chain_point: delta_max outside [1, 6]";
  Arbitrary.make
    ~print:(fun (delta, p) ->
      Printf.sprintf "(delta=%d, %s)" delta (params_print p))
    ~shrink:(fun (delta, p) ->
      Seq.map
        (fun d ->
          ( d,
            Params.of_c ~n:p.Params.n ~delta:(float_of_int d) ~nu:p.Params.nu
              ~c:(Params.c p) ))
        (Seq.filter (fun d -> d >= 1) (Shrink.int ~target:1 delta)))
    (fun rng ->
      (* The explicit C_F||P construction is exponential in delta and its
         solvers want a mixing chain, so keep alpha moderate: with
         alpha ~ 1 - exp(-mu/c), c in [0.45, 8] and nu in [0.05, 0.45]
         pin alpha inside roughly [0.07, 0.88]. *)
      let delta = Gen.int_range ~lo:1 ~hi:delta_max rng in
      let n = Gen.log_float_range ~lo:8. ~hi:1e4 rng in
      let nu = Gen.float_range ~lo:0.05 ~hi:0.45 rng in
      let c = Gen.log_float_range ~lo:0.45 ~hi:8. rng in
      (delta, Params.of_c ~n ~delta:(float_of_int delta) ~nu ~c))

(* Strategy choice, parameterized by the honest count the spec implies so
   the balance boundary is always in range. *)
let strategy ~honest ~allow_balance rng =
  let private_chain rng =
    Adversary.Private_chain
      { reorg_target = Gen.int_range ~lo:2 ~hi:8 rng }
  in
  let balance rng =
    Adversary.Balance
      { group_boundary = Gen.int_range ~lo:1 ~hi:(max 1 (honest - 1)) rng }
  in
  Gen.frequency
    ([
       (3, Gen.return Adversary.Idle);
       (3, private_chain);
       (2, Gen.return Adversary.Selfish_mining);
     ]
    @ if allow_balance && honest >= 2 then [ (2, balance) ] else [])
    rng

let delay_override ~allow_recipient_dependent rng =
  Gen.frequency
    ([
       (4, Gen.return None);
       (1, Gen.return (Some Network.Immediate));
       (1, Gen.map (fun d -> Some (Network.Fixed d)) (Gen.int_range ~lo:1 ~hi:6));
       (1, Gen.return (Some Network.Maximal));
     ]
    @
    if allow_recipient_dependent then
      [ (1, Gen.return (Some Network.Uniform_random)) ]
    else [])
    rng

(* A spec is usable only if [of_spec] accepts it: its validation holds
   every rule a run needs, the strategy's fit to the honest count
   included, so generation and shrinking never manufacture a
   configuration error out of a behavioral one. *)
let spec_valid s =
  match Scenarios.of_spec s with
  | _ -> true
  | exception Invalid_argument _ -> false

(* Record shrinking: simplify one dimension at a time (strategy to Idle,
   overrides off, numbers toward their floors), keeping only candidates
   that still form a valid configuration so a shrunk counterexample never
   mutates an executor failure into a validation error. *)
let shrink_spec (s : Scenarios.spec) =
  let open Scenarios in
  let strategies =
    match s.strategy with
    | Adversary.Idle -> Seq.empty
    | _ -> Seq.return { s with strategy = Adversary.Idle }
  in
  let delays =
    match s.delay with
    | None -> Seq.empty
    | Some Network.Immediate -> Seq.return { s with delay = None }
    | Some _ ->
      List.to_seq
        [ { s with delay = None }; { s with delay = Some Network.Immediate } ]
  in
  let ties =
    match s.tie_break with
    | Block_tree.Prefer_honest -> Seq.empty
    | Block_tree.First_seen ->
      Seq.return { s with tie_break = Block_tree.Prefer_honest }
  in
  let modes =
    match s.mining_mode with
    | Config.Exact -> Seq.empty
    | Config.Aggregate -> Seq.return { s with mining_mode = Config.Exact }
    | Config.Skip ->
      List.to_seq
        [
          { s with mining_mode = Config.Exact };
          { s with mining_mode = Config.Aggregate };
        ]
  in
  let nus = if s.nu > 0. then Seq.return { s with nu = 0.; strategy = Adversary.Idle } else Seq.empty in
  let numeric =
    List.to_seq
      [
        Seq.map (fun n -> { s with n }) (Shrink.int ~target:8 s.n);
        Seq.map (fun delta -> { s with delta }) (Shrink.int ~target:1 s.delta);
        Seq.map (fun rounds -> { s with rounds }) (Shrink.int ~target:200 s.rounds);
      ]
    |> Seq.concat
  in
  Seq.filter spec_valid
    (List.fold_right Seq.append
       [ strategies; nus; delays; ties; modes ]
       numeric)

let spec_gen ~dual_mode rng =
  let n = Gen.int_range ~lo:8 ~hi:64 rng in
  let nu =
    Gen.frequency
      [ (1, Gen.return 0.); (5, Gen.float_range ~lo:0.05 ~hi:0.45) ]
      rng
  in
  let honest = n - int_of_float (nu *. float_of_int n) in
  let strategy = strategy ~honest ~allow_balance:(not dual_mode) rng in
  let delay = delay_override ~allow_recipient_dependent:(not dual_mode) rng in
  let delta = Gen.int_range ~lo:1 ~hi:6 rng in
  let c = Gen.log_float_range ~lo:0.8 ~hi:8. rng in
  let rounds = Gen.int_range ~lo:200 ~hi:1200 rng in
  let tie_break =
    Gen.oneof_value [ Block_tree.Prefer_honest; Block_tree.First_seen ] rng
  in
  let mining_mode =
    if dual_mode then Config.Exact
    else Gen.oneof_value [ Config.Exact; Config.Aggregate; Config.Skip ] rng
  in
  let seed = Rng.bits64 rng in
  {
    Scenarios.n;
    nu;
    c;
    delta;
    rounds;
    seed;
    strategy;
    delay;
    tie_break;
    mining_mode;
  }

let exec_spec =
  Arbitrary.make ~print:Scenarios.spec_to_string ~shrink:shrink_spec
    (spec_gen ~dual_mode:false)

let oracle_spec =
  Arbitrary.make ~print:Scenarios.spec_to_string ~shrink:shrink_spec
    (spec_gen ~dual_mode:true)
