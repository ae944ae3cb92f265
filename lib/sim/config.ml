type mining_mode = Exact | Aggregate | Skip

exception Incompatible of { mode : mining_mode; reason : string }

let mode_name = function
  | Exact -> "exact"
  | Aggregate -> "aggregate"
  | Skip -> "skip"

let () =
  Printexc.register_printer (function
    | Incompatible { mode; reason } ->
      Some
        (Printf.sprintf "Config.Incompatible(%s): %s" (mode_name mode) reason)
    | _ -> None)

type t = {
  n : int;
  nu : float;
  p : float;
  delta : int;
  rounds : int;
  seed : int64;
  strategy : Adversary.strategy;
  snapshot_interval : int;
  truncate : int;
  delay_override : Nakamoto_net.Network.delay_policy option;
  tie_break : Nakamoto_chain.Block_tree.tie_break;
  mining_mode : mining_mode;
}

let adversary_count t = int_of_float (t.nu *. float_of_int t.n)
let honest_count t = t.n - adversary_count t
let mu t = float_of_int (honest_count t) /. float_of_int t.n

let delay_policy t =
  match t.delay_override with
  | Some policy -> policy
  | None ->
    Adversary.delay_policy_for t.strategy ~delta:t.delta
      ~honest_count:(honest_count t)

let validate t =
  if t.n < 4 then invalid_arg "Config: n must be >= 4 (paper Eq. 3)";
  if not (t.nu >= 0. && t.nu < 0.5) then
    invalid_arg "Config: nu must lie in [0, 1/2) (paper Eq. 2)";
  if not (t.p > 0. && t.p <= 1.) then invalid_arg "Config: p must lie in (0, 1]";
  if t.delta < 1 then invalid_arg "Config: delta must be >= 1";
  if t.rounds < 0 then invalid_arg "Config: rounds must be nonnegative";
  if t.snapshot_interval < 1 then
    invalid_arg "Config: snapshot_interval must be >= 1";
  if t.truncate < 0 then invalid_arg "Config: truncate must be nonnegative";
  if honest_count t <= 0 then invalid_arg "Config: no honest miners left";
  (match t.strategy with
  | Adversary.Idle | Adversary.Private_chain _ | Adversary.Balance _
  | Adversary.Selfish_mining ->
    ());
  (* The fast modes route broadcasts through the network's shared Δ-ring
     lane and fast-forward empty spans, so a delay chosen per recipient
     ([Uniform_random], [Per_recipient]) has no round or recipient to
     inspect.  Reject the combination here, typed, instead of silently
     degrading. *)
  match (t.mining_mode, delay_policy t) with
  | Exact, _
  | ( (Aggregate | Skip),
      ( Nakamoto_net.Network.Immediate | Nakamoto_net.Network.Fixed _
      | Nakamoto_net.Network.Maximal ) ) ->
    ()
  | ( ((Aggregate | Skip) as mode),
      (Nakamoto_net.Network.Uniform_random | Nakamoto_net.Network.Per_recipient _)
    ) ->
    raise
      (Incompatible
         {
           mode;
           reason =
             String.capitalize_ascii (mode_name mode)
             ^ " mining requires a recipient-independent delay policy \
                (Immediate, Fixed or Maximal); the effective policy needs \
                per-round inspection";
         })

let c t = 1. /. (t.p *. float_of_int t.n *. float_of_int t.delta)

let with_c t ~c =
  if c <= 0. then invalid_arg "Config.with_c: c must be positive";
  let p = 1. /. (c *. float_of_int t.n *. float_of_int t.delta) in
  if not (p > 0. && p <= 1.) then
    invalid_arg "Config.with_c: implied p outside (0, 1]";
  { t with p }

let state_process_config t =
  {
    State_process.honest = honest_count t;
    adversarial = adversary_count t;
    p = t.p;
    delta = t.delta;
  }

let default =
  let base =
    {
      n = 40;
      nu = 0.25;
      p = 1.;
      delta = 4;
      rounds = 4000;
      seed = 42L;
      strategy = Adversary.Idle;
      snapshot_interval = 200;
      truncate = 8;
      delay_override = None;
      tie_break = Nakamoto_chain.Block_tree.Prefer_honest;
      mining_mode = Exact;
    }
  in
  with_c base ~c:2.5
