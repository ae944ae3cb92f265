(* Generative wire-protocol properties: the message codec must be the
   identity under decode-after-encode for arbitrary messages (including
   NaN floats, empty lists, extreme ints), and the frame decoder must be
   indifferent to how the byte stream is chunked. *)

open Helpers
module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message
module Spec = Nakamoto_campaign.Spec
module Shard = Nakamoto_campaign.Shard
module Aggregate = Nakamoto_campaign.Aggregate
module Tel = Nakamoto_telemetry

(* --- generators --- *)

let gen_float =
  Gen.frequency
    [
      (6, Gen.float_range ~lo:(-1e6) ~hi:1e6);
      (1, Gen.return nan);
      (1, Gen.return infinity);
      (1, Gen.return neg_infinity);
      (1, Gen.return (-0.));
    ]

let gen_small_string =
  Gen.map
    (fun codes -> String.init (List.length codes) (List.nth codes))
    (Gen.list
       ~len:(Gen.int_range ~lo:0 ~hi:12)
       (Gen.map Char.chr (Gen.int_range ~lo:0 ~hi:255)))

let gen_spec rng =
  let floats ~lo ~hi =
    Gen.list ~len:(Gen.int_range ~lo:1 ~hi:3) (Gen.float_range ~lo ~hi)
  in
  {
    Spec.ps = floats ~lo:0.001 ~hi:0.2 rng;
    ns = Gen.list ~len:(Gen.int_range ~lo:1 ~hi:2) (Gen.int_range ~lo:4 ~hi:64) rng;
    deltas =
      Gen.list ~len:(Gen.int_range ~lo:1 ~hi:2) (Gen.int_range ~lo:1 ~hi:8) rng;
    nus = floats ~lo:0. ~hi:0.49 rng;
    trials_per_cell = Gen.int_range ~lo:1 ~hi:16 rng;
    rounds = Gen.int_range ~lo:1 ~hi:5000 rng;
    mode = Gen.oneof_value [ Spec.Full_protocol; Spec.State_process ] rng;
    strategy =
      Gen.oneof
        [
          Gen.return Nakamoto_sim.Adversary.Idle;
          Gen.map
            (fun reorg_target ->
              Nakamoto_sim.Adversary.Private_chain { reorg_target })
            (Gen.int_range ~lo:1 ~hi:40);
          Gen.map
            (fun group_boundary ->
              Nakamoto_sim.Adversary.Balance { group_boundary })
            (Gen.int_range ~lo:1 ~hi:40);
          Gen.return Nakamoto_sim.Adversary.Selfish_mining;
        ]
        rng;
    mining_mode =
      Gen.oneof_value
        [
          Nakamoto_sim.Config.Exact;
          Nakamoto_sim.Config.Aggregate;
          Nakamoto_sim.Config.Skip;
        ]
        rng;
    truncate = Gen.int_range ~lo:1 ~hi:100 rng;
    seed =
      Gen.oneof_value [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 77L ] rng;
    shard_size = Gen.int_range ~lo:1 ~hi:8 rng;
  }

let gen_snapshot rng =
  let summary rng =
    {
      Nakamoto_prob.Stats.Summary.n = Gen.int_range ~lo:0 ~hi:1000 rng;
      mu = gen_float rng;
      m2s = gen_float rng;
      lo = gen_float rng;
      hi = gen_float rng;
    }
  in
  {
    Aggregate.s_trials = Gen.int_range ~lo:0 ~hi:1000 rng;
    s_total_rounds = Gen.int_range ~lo:0 ~hi:100000 rng;
    s_audited_trials = Gen.int_range ~lo:0 ~hi:1000 rng;
    s_violations = Gen.int_range ~lo:0 ~hi:1000 rng;
    s_convergence_opportunities = Gen.int_range ~lo:0 ~hi:100000 rng;
    s_adversary_blocks = Gen.int_range ~lo:0 ~hi:100000 rng;
    s_honest_blocks = Gen.int_range ~lo:0 ~hi:100000 rng;
    s_h_rounds = Gen.int_range ~lo:0 ~hi:100000 rng;
    s_h1_rounds = Gen.int_range ~lo:0 ~hi:100000 rng;
    s_max_reorg_depth = Gen.int_range ~lo:0 ~hi:64 rng;
    s_reorg_hist =
      Gen.array
        ~len:(Gen.int_range ~lo:0 ~hi:Aggregate.hist_depths)
        (Gen.int_range ~lo:0 ~hi:50)
        rng;
    s_growth = summary rng;
    s_quality = summary rng;
    s_reorg = summary rng;
  }

let gen_telemetry rng =
  (* Entries built through a real registry, so keys are canonical. *)
  let reg = Tel.Registry.create ~clock:(fun () -> 0.) () in
  let n = Gen.int_range ~lo:0 ~hi:4 rng in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "prop_metric_%d" i in
    match Gen.int_range ~lo:0 ~hi:2 rng with
    | 0 ->
      Tel.Counter.add
        (Tel.Registry.counter reg name)
        (Gen.int_range ~lo:0 ~hi:1000 rng)
    | 1 ->
      let h = Tel.Registry.log2_histogram reg name in
      for _ = 1 to Gen.int_range ~lo:0 ~hi:5 rng do
        Tel.Histogram.observe h (Gen.float_range ~lo:0. ~hi:100. rng)
      done
    | _ ->
      Tel.Span.record
        (Tel.Registry.span reg
           ~labels:[ ("domain", string_of_int (Gen.int_range ~lo:0 ~hi:9 rng)) ]
           name)
        (Gen.float_range ~lo:0. ~hi:10. rng)
  done;
  Tel.Registry.Snapshot.entries (Tel.Registry.snapshot reg)

let gen_shard rng =
  {
    Shard.id = Gen.int_range ~lo:0 ~hi:10000 rng;
    cell_index = Gen.int_range ~lo:0 ~hi:100 rng;
    trial_start = Gen.int_range ~lo:0 ~hi:100 rng;
    trial_stop = Gen.int_range ~lo:0 ~hi:100 rng;
    slot = Gen.int_range ~lo:0 ~hi:10 rng;
  }

let gen_message rng =
  match Gen.int_range ~lo:0 ~hi:13 rng with
  | 0 ->
    Msg.Hello
      {
        version = Gen.int_range ~lo:0 ~hi:1000 rng;
        role = Gen.oneof_value [ Msg.Worker; Msg.Client ] rng;
      }
  | 1 ->
    Msg.Hello_ack
      { version = Gen.int_range ~lo:0 ~hi:1000 rng; telemetry = Gen.bool rng }
  | 2 ->
    Msg.Submit_campaign
      {
        Msg.sub_spec = gen_spec rng;
        sub_journal =
          (if Gen.bool rng then Some (gen_small_string rng) else None);
        sub_resume = Gen.bool rng;
      }
  | 3 -> Msg.Lease_request { max = Gen.int_range ~lo:1 ~hi:256 rng }
  | 4 ->
    Msg.Lease_grant
      {
        grants =
          Gen.list
            ~len:(Gen.int_range ~lo:1 ~hi:5)
            (fun rng ->
              {
                Msg.lease_id = Gen.int_range ~lo:0 ~hi:100000 rng;
                shard = gen_shard rng;
              })
            rng;
        spec = gen_spec rng;
      }
  | 5 -> Msg.No_work { retry_after = Gen.float_range ~lo:0. ~hi:5. rng }
  | 6 ->
    Msg.Cell_result
      {
        Msg.res_lease = Gen.int_range ~lo:0 ~hi:100000 rng;
        res_shard = Gen.int_range ~lo:0 ~hi:10000 rng;
        res_aggregate = gen_snapshot rng;
        res_telemetry = gen_telemetry rng;
      }
  | 7 ->
    Msg.Query_assess
      {
        Msg.q_nu = gen_float rng;
        q_c = gen_float rng;
        q_n = gen_float rng;
        q_delta = gen_float rng;
      }
  | 8 ->
    Msg.Assess_reply
      {
        Msg.a_zone = gen_small_string rng;
        a_neat_threshold = gen_float rng;
        a_neat_margin = gen_float rng;
        a_attack_threshold = gen_float rng;
        a_confirmations =
          (if Gen.bool rng then Some (Gen.int_range ~lo:0 ~hi:10000 rng)
           else None);
        a_rendered = gen_small_string rng;
      }
  | 9 ->
    Msg.Progress
      {
        Msg.p_trials_done = Gen.int_range ~lo:0 ~hi:100000 rng;
        p_trials_total = Gen.int_range ~lo:0 ~hi:100000 rng;
        p_cells_done = Gen.int_range ~lo:0 ~hi:1000 rng;
        p_cells_total = Gen.int_range ~lo:0 ~hi:1000 rng;
      }
  | 10 ->
    Msg.Done
      {
        table = gen_small_string rng;
        journal = (if Gen.bool rng then Some (gen_small_string rng) else None);
      }
  | 11 -> Msg.Ping { nonce = Gen.int_range ~lo:0 ~hi:1000000 rng }
  | 12 -> Msg.Pong { nonce = Gen.int_range ~lo:0 ~hi:1000000 rng }
  | _ -> Msg.Error (gen_small_string rng)

let arb_message =
  Arbitrary.make
    ~print:(fun m ->
      let tag, payload = Msg.encode m in
      Printf.sprintf "message tag %d, %d payload bytes" tag
        (String.length payload))
    gen_message

(* decode (encode m) = m, witnessed byte-exactly through a re-encode —
   structural equality would choke on NaN. *)
let prop_decode_encode_id m =
  let tag, payload = Msg.encode m in
  match Msg.decode ~tag ~payload with
  | Error e -> failwith ("decode rejected its own encoding: " ^ e)
  | Ok m' ->
    let tag', payload' = Msg.encode m' in
    if tag <> tag' then failwith "tag changed across the round trip";
    if payload <> payload' then failwith "payload bytes changed across the round trip"

(* Feeding one frame stream in arbitrary chunk sizes yields the same
   frames: the decoder state machine has no alignment assumptions. *)
let arb_stream =
  Arbitrary.make
    ~print:(fun (ms, cut) ->
      Printf.sprintf "%d messages, chunk cut %d" (List.length ms) cut)
    (Gen.pair
       (Gen.list ~len:(Gen.int_range ~lo:1 ~hi:5) gen_message)
       (Gen.int_range ~lo:1 ~hi:17))

let frame_bytes ~tag ~payload =
  let len = String.length payload + 1 in
  let b = Buffer.create (5 + String.length payload) in
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (len land 0xff));
  Buffer.add_char b (Char.chr tag);
  Buffer.add_string b payload;
  Buffer.contents b

let prop_chunking_indifference (ms, cut) =
  let stream =
    String.concat ""
      (List.map
         (fun m ->
           let tag, payload = Msg.encode m in
           frame_bytes ~tag ~payload)
         ms)
  in
  let d = Frame.Decoder.create () in
  let got = ref [] in
  let drain () =
    let rec go () =
      match Frame.Decoder.next d with
      | `Frame (tag, payload) ->
        got := (tag, payload) :: !got;
        go ()
      | `Awaiting -> ()
      | `Bad e -> failwith ("decoder rejected a valid stream: " ^ e)
    in
    go ()
  in
  let pos = ref 0 in
  while !pos < String.length stream do
    let n = min cut (String.length stream - !pos) in
    Frame.Decoder.feed d (String.sub stream !pos n);
    pos := !pos + n;
    drain ()
  done;
  let expect = List.map Msg.encode ms in
  if List.rev !got <> expect then
    failwith "chunked decode produced different frames"

let suite =
  [
    prop ~count:120 "wire: decode (encode m) = m" arb_message
      (holds prop_decode_encode_id);
    prop ~count:80 "wire: frame decoding is chunking-indifferent" arb_stream
      (holds prop_chunking_indifference);
  ]
