module Spec = Nakamoto_campaign.Spec
module Shard = Nakamoto_campaign.Shard
module Aggregate = Nakamoto_campaign.Aggregate
module Stats = Nakamoto_prob.Stats
module Tel = Nakamoto_telemetry

type role = Worker | Client

type submit = {
  sub_spec : Spec.t;
  sub_journal : string option;
  sub_resume : bool;
}

type lease = { lease_id : int; shard : Shard.t }

type cell_result = {
  res_lease : int;
  res_shard : int;
  res_aggregate : Aggregate.snapshot;
  res_telemetry : (Tel.Registry.Snapshot.key * Tel.Registry.Snapshot.value) list;
}

type assess_params = { q_nu : float; q_c : float; q_n : float; q_delta : float }

type assess_reply = {
  a_zone : string;
  a_neat_threshold : float;
  a_neat_margin : float;
  a_attack_threshold : float;
  a_confirmations : int option;
  a_rendered : string;
}

type progress = {
  p_trials_done : int;
  p_trials_total : int;
  p_cells_done : int;
  p_cells_total : int;
}

type t =
  | Hello of { version : int; role : role }
  | Hello_ack of { version : int; telemetry : bool }
  | Submit_campaign of submit
  | Lease_request of { max : int }
  | Lease_grant of { grants : lease list; spec : Spec.t }
  | No_work of { retry_after : float }
  | Cell_result of cell_result
  | Query_assess of assess_params
  | Assess_reply of assess_reply
  | Progress of progress
  | Done of { table : string; journal : string option }
  | Error of string
  | Ping of { nonce : int }
  | Pong of { nonce : int }

let tag = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Submit_campaign _ -> 3
  | Lease_request _ -> 4
  | Lease_grant _ -> 5
  | No_work _ -> 6
  | Cell_result _ -> 7
  | Query_assess _ -> 8
  | Assess_reply _ -> 9
  | Progress _ -> 10
  | Done _ -> 11
  | Error _ -> 12
  | Ping _ -> 13
  | Pong _ -> 14

(* --- Component codecs ---------------------------------------------- *)

let add_shard w (sh : Shard.t) =
  Codec.add_int w sh.Shard.id;
  Codec.add_int w sh.Shard.cell_index;
  Codec.add_int w sh.Shard.trial_start;
  Codec.add_int w sh.Shard.trial_stop;
  Codec.add_int w sh.Shard.slot

let get_shard r =
  let id = Codec.get_int r in
  let cell_index = Codec.get_int r in
  let trial_start = Codec.get_int r in
  let trial_stop = Codec.get_int r in
  let slot = Codec.get_int r in
  { Shard.id; cell_index; trial_start; trial_stop; slot }

let add_summary w (s : Stats.Summary.raw) =
  Codec.add_int w s.Stats.Summary.n;
  Codec.add_f64 w s.Stats.Summary.mu;
  Codec.add_f64 w s.Stats.Summary.m2s;
  Codec.add_f64 w s.Stats.Summary.lo;
  Codec.add_f64 w s.Stats.Summary.hi

let get_summary r =
  let n = Codec.get_int r in
  let mu = Codec.get_f64 r in
  let m2s = Codec.get_f64 r in
  let lo = Codec.get_f64 r in
  let hi = Codec.get_f64 r in
  { Stats.Summary.n; mu; m2s; lo; hi }

let add_aggregate w (s : Aggregate.snapshot) =
  Codec.add_int w s.Aggregate.s_trials;
  Codec.add_int w s.s_total_rounds;
  Codec.add_int w s.s_audited_trials;
  Codec.add_int w s.s_violations;
  Codec.add_int w s.s_convergence_opportunities;
  Codec.add_int w s.s_adversary_blocks;
  Codec.add_int w s.s_honest_blocks;
  Codec.add_int w s.s_h_rounds;
  Codec.add_int w s.s_h1_rounds;
  Codec.add_int w s.s_max_reorg_depth;
  Codec.add_array w Codec.add_int s.s_reorg_hist;
  add_summary w s.s_growth;
  add_summary w s.s_quality;
  add_summary w s.s_reorg

let get_aggregate r =
  let s_trials = Codec.get_int r in
  let s_total_rounds = Codec.get_int r in
  let s_audited_trials = Codec.get_int r in
  let s_violations = Codec.get_int r in
  let s_convergence_opportunities = Codec.get_int r in
  let s_adversary_blocks = Codec.get_int r in
  let s_honest_blocks = Codec.get_int r in
  let s_h_rounds = Codec.get_int r in
  let s_h1_rounds = Codec.get_int r in
  let s_max_reorg_depth = Codec.get_int r in
  let s_reorg_hist = Codec.get_array r Codec.get_int in
  let s_growth = get_summary r in
  let s_quality = get_summary r in
  let s_reorg = get_summary r in
  {
    Aggregate.s_trials;
    s_total_rounds;
    s_audited_trials;
    s_violations;
    s_convergence_opportunities;
    s_adversary_blocks;
    s_honest_blocks;
    s_h_rounds;
    s_h1_rounds;
    s_max_reorg_depth;
    s_reorg_hist;
    s_growth;
    s_quality;
    s_reorg;
  }

let add_hist w (h : Tel.Histogram.snapshot) =
  (match h.Tel.Histogram.s_kind with
  | None -> Codec.add_u8 w 0
  | Some (Tel.Histogram.Fixed bounds) ->
    Codec.add_u8 w 1;
    Codec.add_array w Codec.add_f64 bounds
  | Some Tel.Histogram.Log2 -> Codec.add_u8 w 2);
  Codec.add_array w Codec.add_int h.s_counts;
  Codec.add_int w h.s_count;
  Codec.add_f64 w h.s_sum;
  Codec.add_f64 w h.s_min;
  Codec.add_f64 w h.s_max

let get_hist r =
  let s_kind =
    match Codec.get_u8 r with
    | 0 -> None
    | 1 -> Some (Tel.Histogram.Fixed (Codec.get_array r Codec.get_f64))
    | 2 -> Some Tel.Histogram.Log2
    | k -> raise (Codec.Error (Printf.sprintf "invalid histogram kind %d" k))
  in
  let s_counts = Codec.get_array r Codec.get_int in
  let s_count = Codec.get_int r in
  let s_sum = Codec.get_f64 r in
  let s_min = Codec.get_f64 r in
  let s_max = Codec.get_f64 r in
  { Tel.Histogram.s_kind; s_counts; s_count; s_sum; s_min; s_max }

let add_tel_entry w ((k : Tel.Registry.Snapshot.key), v) =
  Codec.add_string w k.Tel.Registry.Snapshot.name;
  Codec.add_list w
    (fun w (l, value) ->
      Codec.add_string w l;
      Codec.add_string w value)
    k.labels;
  match v with
  | Tel.Registry.Snapshot.Counter c ->
    Codec.add_u8 w 0;
    Codec.add_int w c
  | Tel.Registry.Snapshot.Histogram h ->
    Codec.add_u8 w 1;
    add_hist w h
  | Tel.Registry.Snapshot.Span s ->
    Codec.add_u8 w 2;
    add_hist w s

let get_tel_entry r =
  let name = Codec.get_string r in
  let labels =
    Codec.get_list r (fun r ->
        let l = Codec.get_string r in
        let v = Codec.get_string r in
        (l, v))
  in
  let value =
    match Codec.get_u8 r with
    | 0 -> Tel.Registry.Snapshot.Counter (Codec.get_int r)
    | 1 -> Tel.Registry.Snapshot.Histogram (get_hist r)
    | 2 -> Tel.Registry.Snapshot.Span (get_hist r)
    | k -> raise (Codec.Error (Printf.sprintf "invalid instrument kind %d" k))
  in
  ({ Tel.Registry.Snapshot.name; labels }, value)

(* Every grant of a campaign carries the same spec, so each side keeps
   a one-entry memo: the encoder reuses the JSON it rendered for the
   physically same (immutable) spec, the decoder returns the spec it
   parsed from an equal string.  Both functions are pure, so the bytes
   and values are those of a fresh render or parse.  The memos are
   per-domain: daemons and workers may share one process. *)
let rendered_spec : (Spec.t * string) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let parsed_spec : (string * Spec.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let add_spec w spec =
  let json =
    match Domain.DLS.get rendered_spec with
    | Some (s, json) when s == spec -> json
    | _ ->
      let json = Spec.to_json spec in
      Domain.DLS.set rendered_spec (Some (spec, json));
      json
  in
  Codec.add_string w json

let get_spec r =
  let json = Codec.get_string r in
  match Domain.DLS.get parsed_spec with
  | Some (j, spec) when String.equal j json -> spec
  | _ -> (
    match Spec.of_json json with
    | Ok spec ->
      Domain.DLS.set parsed_spec (Some (json, spec));
      spec
    | Error msg -> raise (Codec.Error msg))

let role_to_u8 = function Worker -> 0 | Client -> 1

let get_role r =
  match Codec.get_u8 r with
  | 0 -> Worker
  | 1 -> Client
  | k -> raise (Codec.Error (Printf.sprintf "invalid role byte %d" k))

(* --- Message codec ------------------------------------------------- *)

let encode m =
  let w = Codec.writer () in
  (match m with
  | Hello { version; role } ->
    Codec.add_int w version;
    Codec.add_u8 w (role_to_u8 role)
  | Hello_ack { version; telemetry } ->
    Codec.add_int w version;
    Codec.add_bool w telemetry
  | Submit_campaign { sub_spec; sub_journal; sub_resume } ->
    add_spec w sub_spec;
    Codec.add_opt w Codec.add_string sub_journal;
    Codec.add_bool w sub_resume
  | Lease_request { max } -> Codec.add_int w max
  | Lease_grant { grants; spec } ->
    Codec.add_list w
      (fun w { lease_id; shard } ->
        Codec.add_int w lease_id;
        add_shard w shard)
      grants;
    add_spec w spec
  | No_work { retry_after } -> Codec.add_f64 w retry_after
  | Cell_result { res_lease; res_shard; res_aggregate; res_telemetry } ->
    Codec.add_int w res_lease;
    Codec.add_int w res_shard;
    add_aggregate w res_aggregate;
    Codec.add_list w add_tel_entry res_telemetry
  | Query_assess { q_nu; q_c; q_n; q_delta } ->
    Codec.add_f64 w q_nu;
    Codec.add_f64 w q_c;
    Codec.add_f64 w q_n;
    Codec.add_f64 w q_delta
  | Assess_reply a ->
    Codec.add_string w a.a_zone;
    Codec.add_f64 w a.a_neat_threshold;
    Codec.add_f64 w a.a_neat_margin;
    Codec.add_f64 w a.a_attack_threshold;
    Codec.add_opt w Codec.add_int a.a_confirmations;
    Codec.add_string w a.a_rendered
  | Progress p ->
    Codec.add_int w p.p_trials_done;
    Codec.add_int w p.p_trials_total;
    Codec.add_int w p.p_cells_done;
    Codec.add_int w p.p_cells_total
  | Done { table; journal } ->
    Codec.add_string w table;
    Codec.add_opt w Codec.add_string journal
  | Error msg -> Codec.add_string w msg
  | Ping { nonce } -> Codec.add_int w nonce
  | Pong { nonce } -> Codec.add_int w nonce);
  (tag m, Codec.contents w)

let decode ~tag ~payload =
  let r = Codec.reader payload in
  match
    let m =
      match tag with
      | 1 ->
        let version = Codec.get_int r in
        let role = get_role r in
        Hello { version; role }
      | 2 ->
        let version = Codec.get_int r in
        let telemetry = Codec.get_bool r in
        Hello_ack { version; telemetry }
      | 3 ->
        let sub_spec = get_spec r in
        let sub_journal = Codec.get_opt r Codec.get_string in
        let sub_resume = Codec.get_bool r in
        Submit_campaign { sub_spec; sub_journal; sub_resume }
      | 4 -> Lease_request { max = Codec.get_int r }
      | 5 ->
        let grants =
          Codec.get_list r (fun r ->
              let lease_id = Codec.get_int r in
              let shard = get_shard r in
              { lease_id; shard })
        in
        let spec = get_spec r in
        Lease_grant { grants; spec }
      | 6 -> No_work { retry_after = Codec.get_f64 r }
      | 7 ->
        let res_lease = Codec.get_int r in
        let res_shard = Codec.get_int r in
        let res_aggregate = get_aggregate r in
        let res_telemetry = Codec.get_list r get_tel_entry in
        Cell_result { res_lease; res_shard; res_aggregate; res_telemetry }
      | 8 ->
        let q_nu = Codec.get_f64 r in
        let q_c = Codec.get_f64 r in
        let q_n = Codec.get_f64 r in
        let q_delta = Codec.get_f64 r in
        Query_assess { q_nu; q_c; q_n; q_delta }
      | 9 ->
        let a_zone = Codec.get_string r in
        let a_neat_threshold = Codec.get_f64 r in
        let a_neat_margin = Codec.get_f64 r in
        let a_attack_threshold = Codec.get_f64 r in
        let a_confirmations = Codec.get_opt r Codec.get_int in
        let a_rendered = Codec.get_string r in
        Assess_reply
          {
            a_zone;
            a_neat_threshold;
            a_neat_margin;
            a_attack_threshold;
            a_confirmations;
            a_rendered;
          }
      | 10 ->
        let p_trials_done = Codec.get_int r in
        let p_trials_total = Codec.get_int r in
        let p_cells_done = Codec.get_int r in
        let p_cells_total = Codec.get_int r in
        Progress { p_trials_done; p_trials_total; p_cells_done; p_cells_total }
      | 11 ->
        let table = Codec.get_string r in
        let journal = Codec.get_opt r Codec.get_string in
        Done { table; journal }
      | 12 -> Error (Codec.get_string r)
      | 13 -> Ping { nonce = Codec.get_int r }
      | 14 -> Pong { nonce = Codec.get_int r }
      | t -> raise (Codec.Error (Printf.sprintf "unknown message tag %d" t))
    in
    if not (Codec.finished r) then
      raise (Codec.Error "trailing bytes after message payload");
    m
  with
  | m -> Ok m
  | exception Codec.Error msg ->
    Result.Error (Printf.sprintf "tag %d: %s" tag msg)

(* --- Channel helpers ----------------------------------------------- *)

type read_result = [ `Msg of t | `Eof | `Timeout | `Bad of string ]

let send ch m =
  let tag, payload = encode m in
  Frame.Channel.write ch ~tag ~payload

let recv ?timeout ch : read_result =
  match Frame.Channel.read ?timeout ch with
  | `Eof -> `Eof
  | `Timeout -> `Timeout
  | `Bad msg -> `Bad msg
  | `Frame (tag, payload) -> (
    match decode ~tag ~payload with
    | Ok m -> `Msg m
    | Result.Error msg -> `Bad msg)
