module Sim = Nakamoto_sim
module Rng = Nakamoto_prob.Rng

type mode = Full_protocol | State_process

type t = {
  ps : float list;
  ns : int list;
  deltas : int list;
  nus : float list;
  trials_per_cell : int;
  rounds : int;
  mode : mode;
  strategy : Sim.Adversary.strategy;
  mining_mode : Sim.Config.mining_mode;
  truncate : int;
  seed : int64;
  shard_size : int;
}

type cell = { index : int; p : float; n : int; delta : int; nu : float }

let default =
  {
    ps = [ 0.005 ];
    ns = [ 40 ];
    deltas = [ 4 ];
    nus = [ 0.1; 0.25; 0.4 ];
    trials_per_cell = 8;
    rounds = 1_500;
    mode = Full_protocol;
    strategy = Sim.Adversary.Private_chain { reorg_target = 12 };
    mining_mode = Sim.Config.Exact;
    truncate = 6;
    seed = 42L;
    shard_size = 2;
  }

let cells t =
  let acc = ref [] in
  let index = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          List.iter
            (fun delta ->
              List.iter
                (fun nu ->
                  acc := { index = !index; p; n; delta; nu } :: !acc;
                  incr index)
                t.nus)
            t.deltas)
        t.ns)
    t.ps;
  Array.of_list (List.rev !acc)

let cell_count t =
  List.length t.ps * List.length t.ns * List.length t.deltas
  * List.length t.nus

let trial_count t = cell_count t * t.trials_per_cell
let c_of_cell cell = 1. /. (cell.p *. float_of_int (cell.n * cell.delta))

(* Snapshots feed the consistency audit; scale their cadence with the
   horizon so short trials still collect a handful of audit points. *)
let snapshot_interval_for rounds = max 1 (min 200 (rounds / 20))

let config_of_cell t cell ~trial =
  if trial < 0 || trial >= t.trials_per_cell then
    invalid_arg "Spec.config_of_cell: trial outside [0, trials_per_cell)";
  {
    Sim.Config.default with
    n = cell.n;
    nu = cell.nu;
    p = cell.p;
    delta = cell.delta;
    rounds = t.rounds;
    seed = Rng.seed_of_path ~seed:t.seed [ cell.index; trial ];
    strategy = t.strategy;
    mining_mode = t.mining_mode;
    snapshot_interval = snapshot_interval_for t.rounds;
    truncate = t.truncate;
  }

(* The spec's own rules come first; every rule a run needs (ranges, the
   strategy's fit to a cell's honest count) is Config.validate's, applied
   to each cell before any trial runs or any journal is opened.  State
   mode runs no adversary strategy, so its cells are checked without one. *)
let validate t =
  let nonempty name = function
    | [] -> invalid_arg (Printf.sprintf "Spec: %s axis is empty" name)
    | _ -> ()
  in
  nonempty "p" t.ps;
  nonempty "n" t.ns;
  nonempty "delta" t.deltas;
  nonempty "nu" t.nus;
  List.iter
    (fun p -> if not (p < 1.) then invalid_arg "Spec: p must be < 1")
    t.ps;
  if t.trials_per_cell < 1 then invalid_arg "Spec: trials_per_cell must be >= 1";
  if t.rounds < 1 then invalid_arg "Spec: rounds must be >= 1";
  if t.shard_size < 1 then invalid_arg "Spec: shard_size must be >= 1";
  Array.iter
    (fun cell ->
      let config = config_of_cell t cell ~trial:0 in
      let config =
        match t.mode with
        | Full_protocol -> config
        | State_process -> { config with strategy = Sim.Adversary.Idle }
      in
      try Sim.Config.validate config
      with Invalid_argument m ->
        invalid_arg
          (Printf.sprintf
             "Spec: cell %d (p = %g, n = %d, delta = %d, nu = %g): %s"
             cell.index cell.p cell.n cell.delta cell.nu m))
    (cells t)

let state_config_of_cell cell =
  let adversarial = int_of_float (cell.nu *. float_of_int cell.n) in
  {
    Sim.State_process.honest = cell.n - adversarial;
    adversarial;
    p = cell.p;
    delta = cell.delta;
  }

let trial_rng t cell ~trial =
  if trial < 0 || trial >= t.trials_per_cell then
    invalid_arg "Spec.trial_rng: trial outside [0, trials_per_cell)";
  Rng.of_path ~seed:t.seed [ cell.index; trial ]

(* ------------------------------------------------------------------ *)
(* Canonical JSON codec                                                *)
(* ------------------------------------------------------------------ *)

let codec_version = 1

let strategy_to_json = function
  | Sim.Adversary.Idle -> Json.Obj [ ("kind", Json.Str "idle") ]
  | Sim.Adversary.Private_chain { reorg_target } ->
    Json.Obj
      [ ("kind", Json.Str "private_chain");
        ("reorg_target", Json.Num (string_of_int reorg_target)) ]
  | Sim.Adversary.Balance { group_boundary } ->
    Json.Obj
      [ ("kind", Json.Str "balance");
        ("group_boundary", Json.Num (string_of_int group_boundary)) ]
  | Sim.Adversary.Selfish_mining -> Json.Obj [ ("kind", Json.Str "selfish_mining") ]

let strategy_of_json j =
  match Json.to_string (Json.member j "kind") with
  | "idle" -> Sim.Adversary.Idle
  | "private_chain" ->
    Sim.Adversary.Private_chain
      { reorg_target = Json.to_int (Json.member j "reorg_target") }
  | "balance" ->
    Sim.Adversary.Balance
      { group_boundary = Json.to_int (Json.member j "group_boundary") }
  | "selfish_mining" -> Sim.Adversary.Selfish_mining
  | other -> raise (Json.Malformed ("unknown strategy kind " ^ other))

let mining_mode_name = function
  | Sim.Config.Exact -> "exact"
  | Sim.Config.Aggregate -> "aggregate"
  | Sim.Config.Skip -> "skip"

let to_json t =
  let num_int i = Json.Num (string_of_int i) in
  let num_float f = Json.Num (Json.float_str f) in
  (* [mining_mode] is emitted only when it differs from the historical
     default: every pre-existing exact-mode spec keeps its canonical
     bytes, and therefore its fingerprint and journal compatibility. *)
  let mining_mode =
    match t.mining_mode with
    | Sim.Config.Exact -> []
    | m -> [ ("mining_mode", Json.Str (mining_mode_name m)) ]
  in
  Json.render
    (Json.Obj
       ([
         ("spec", Json.Str "nakamoto-campaign");
         ("version", num_int codec_version);
         ("ps", Json.Arr (List.map num_float t.ps));
         ("ns", Json.Arr (List.map num_int t.ns));
         ("deltas", Json.Arr (List.map num_int t.deltas));
         ("nus", Json.Arr (List.map num_float t.nus));
         ("trials_per_cell", num_int t.trials_per_cell);
         ("rounds", num_int t.rounds);
         ( "mode",
           Json.Str
             (match t.mode with
             | Full_protocol -> "full"
             | State_process -> "state") );
         ("strategy", strategy_to_json t.strategy);
         ("truncate", num_int t.truncate);
         ("seed", Json.Str (Int64.to_string t.seed));
         ("shard_size", num_int t.shard_size);
        ]
       @ mining_mode))

let of_json text =
  match Json.parse text with
  | exception Json.Malformed msg -> Error ("Spec.of_json: " ^ msg)
  | j -> (
    try
      (match Json.to_string (Json.member j "spec") with
      | "nakamoto-campaign" -> ()
      | other -> raise (Json.Malformed ("not a campaign spec: " ^ other)));
      let v = Json.to_int (Json.member j "version") in
      if v <> codec_version then
        raise
          (Json.Malformed
             (Printf.sprintf "unsupported spec codec version %d (expected %d)"
                v codec_version));
      Ok
        {
          ps = List.map Json.to_float (Json.to_list (Json.member j "ps"));
          ns = List.map Json.to_int (Json.to_list (Json.member j "ns"));
          deltas = List.map Json.to_int (Json.to_list (Json.member j "deltas"));
          nus = List.map Json.to_float (Json.to_list (Json.member j "nus"));
          trials_per_cell = Json.to_int (Json.member j "trials_per_cell");
          rounds = Json.to_int (Json.member j "rounds");
          mode =
            (match Json.to_string (Json.member j "mode") with
            | "full" -> Full_protocol
            | "state" -> State_process
            | other -> raise (Json.Malformed ("unknown mode " ^ other)));
          strategy = strategy_of_json (Json.member j "strategy");
          mining_mode =
            (match Json.member_opt j "mining_mode" with
            | None -> Sim.Config.Exact
            | Some m -> (
              match Json.to_string m with
              | "exact" -> Sim.Config.Exact
              | "aggregate" -> Sim.Config.Aggregate
              | "skip" -> Sim.Config.Skip
              | other ->
                raise (Json.Malformed ("unknown mining_mode " ^ other))));
          truncate = Json.to_int (Json.member j "truncate");
          seed = Json.to_int64_string (Json.member j "seed");
          shard_size = Json.to_int (Json.member j "shard_size");
        }
    with Json.Malformed msg -> Error ("Spec.of_json: " ^ msg))

(* The fingerprint hashes the canonical serialization byte by byte
   through the SplitMix64 finalizer.  Structural rather than
   cryptographic: its only job is to make accidental spec drift across a
   resume (or across the wire) loudly detectable — and because the input
   is [to_json], any field that changes the campaign changes the bytes
   and therefore the fingerprint, with no second field list to keep in
   sync. *)
let fingerprint t =
  let s = to_json t in
  let acc = ref 0x6E616B616D6F746FL in
  String.iter
    (fun c ->
      acc := Rng.splitmix64 (Int64.logxor !acc (Int64.of_int (Char.code c))))
    s;
  !acc

let describe t =
  Printf.sprintf "%d cells x %d trials x %d rounds, seed %Ld, fingerprint %Ld"
    (cell_count t) t.trials_per_cell t.rounds t.seed (fingerprint t)
