(* The wire layer: framing edge cases and the message codec.

   The framing tests exercise exactly the defensive properties the
   interface promises — truncation is typed, the max-frame cap rejects
   hostile lengths before allocation, unknown tags decode to an [Error]
   result rather than an exception — and the codec tests pin the
   round-trip contract the serve subsystem's determinism rests on. *)

open Helpers
module Frame = Nakamoto_wire.Frame
module Codec = Nakamoto_wire.Codec
module Msg = Nakamoto_wire.Message
module Spec = Nakamoto_campaign.Spec
module Aggregate = Nakamoto_campaign.Aggregate
module Tel = Nakamoto_telemetry

(* --- codec primitives --- *)

let test_codec_primitives () =
  let w = Codec.writer () in
  Codec.add_int w (-1);
  Codec.add_int w max_int;
  Codec.add_i64 w Int64.min_int;
  Codec.add_f64 w nan;
  Codec.add_f64 w neg_infinity;
  Codec.add_f64 w (-0.);
  Codec.add_bool w true;
  Codec.add_string w "nul\000bytes\nkept";
  Codec.add_opt w Codec.add_int None;
  Codec.add_opt w Codec.add_int (Some 7);
  Codec.add_list w Codec.add_f64 [ 1.5; -2.25 ];
  Codec.add_array w Codec.add_int [| 3; 1; 4 |];
  let r = Codec.reader (Codec.contents w) in
  check_int "int -1" (-1) (Codec.get_int r);
  check_int "max_int" max_int (Codec.get_int r);
  check_true "min_int64" (Codec.get_i64 r = Int64.min_int);
  check_true "nan bits" (Float.is_nan (Codec.get_f64 r));
  check_true "-inf" (Codec.get_f64 r = neg_infinity);
  check_true "-0. sign preserved" (1. /. Codec.get_f64 r = neg_infinity);
  check_true "bool" (Codec.get_bool r);
  Alcotest.(check string) "string" "nul\000bytes\nkept" (Codec.get_string r);
  check_true "none" (Codec.get_opt r Codec.get_int = None);
  check_true "some" (Codec.get_opt r Codec.get_int = Some 7);
  check_true "list" (Codec.get_list r Codec.get_f64 = [ 1.5; -2.25 ]);
  check_true "array" (Codec.get_array r Codec.get_int = [| 3; 1; 4 |]);
  check_true "finished" (Codec.finished r)

let test_codec_truncation_raises () =
  let w = Codec.writer () in
  Codec.add_int w 42;
  let s = Codec.contents w in
  let r = Codec.reader (String.sub s 0 4) in
  (match Codec.get_int r with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "truncated i64 should raise");
  let r = Codec.reader "\x00\x00\x00\xff" in
  match Codec.get_string r with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "string length past the end should raise"

(* --- message round trips --- *)

let sample_snapshot () =
  let agg = Aggregate.create () in
  Aggregate.observe agg
    {
      Aggregate.rounds = 120;
      convergence_opportunities = 17;
      adversary_blocks = 3;
      honest_blocks = 29;
      h_rounds = 31;
      h1_rounds = 24;
      full = true;
      violated = true;
      max_reorg_depth = 5;
      growth_rate = 0.25;
      chain_quality = 0.875;
    };
  Aggregate.snapshot agg

let sample_telemetry () =
  let reg = Tel.Registry.create ~clock:(fun () -> 0.) () in
  Tel.Counter.incr (Tel.Registry.counter reg "serve_frames_in_total");
  Tel.Span.record
    (Tel.Registry.span reg ~labels:[ ("domain", "3") ] "campaign_shard_seconds")
    0.125;
  Tel.Registry.Snapshot.entries (Tel.Registry.snapshot reg)

let sample_messages () =
  [
    Msg.Hello { version = 1; role = Msg.Worker };
    Msg.Hello { version = 9; role = Msg.Client };
    Msg.Hello_ack { version = 3; telemetry = false };
    Msg.Hello_ack { version = 3; telemetry = true };
    Msg.Submit_campaign
      {
        Msg.sub_spec = Spec.default;
        sub_journal = Some "/tmp/j.jsonl";
        sub_resume = true;
      };
    Msg.Submit_campaign
      { Msg.sub_spec = Spec.default; sub_journal = None; sub_resume = false };
    Msg.Lease_request { max = 1 };
    Msg.Lease_request { max = 64 };
    Msg.Lease_grant
      {
        grants =
          [
            {
              Msg.lease_id = 42;
              shard =
                {
                  Nakamoto_campaign.Shard.id = 3;
                  cell_index = 1;
                  trial_start = 2;
                  trial_stop = 4;
                  slot = 1;
                };
            };
            {
              Msg.lease_id = 43;
              shard =
                {
                  Nakamoto_campaign.Shard.id = 4;
                  cell_index = 1;
                  trial_start = 4;
                  trial_stop = 6;
                  slot = 2;
                };
            };
          ];
        spec = Spec.default;
      };
    Msg.Ping { nonce = 0 };
    Msg.Ping { nonce = max_int };
    Msg.Pong { nonce = 7 };
    Msg.No_work { retry_after = 0.05 };
    Msg.Cell_result
      {
        Msg.res_lease = 42;
        res_shard = 3;
        res_aggregate = sample_snapshot ();
        res_telemetry = sample_telemetry ();
      };
    Msg.Query_assess { Msg.q_nu = 0.25; q_c = 3.; q_n = 1e5; q_delta = 1e13 };
    Msg.Assess_reply
      {
        Msg.a_zone = "SAFE";
        a_neat_threshold = 1.46;
        a_neat_margin = 1.54;
        a_attack_threshold = 0.75;
        a_confirmations = Some 12;
        a_rendered = "multi\nline\nverdict";
      };
    Msg.Progress
      {
        Msg.p_trials_done = 4;
        p_trials_total = 8;
        p_cells_done = 1;
        p_cells_total = 2;
      };
    Msg.Done { table = "the table"; journal = Some "j.jsonl" };
    Msg.Done { table = ""; journal = None };
    Msg.Error "boom";
  ]

let test_message_round_trips () =
  List.iter
    (fun m ->
      let tag, payload = Msg.encode m in
      match Msg.decode ~tag ~payload with
      | Error e -> Alcotest.failf "decode failed on tag %d: %s" tag e
      | Ok m' ->
        let tag', payload' = Msg.encode m' in
        check_int "tag stable" tag tag';
        Alcotest.(check string) "payload stable" payload payload')
    (sample_messages ())

let test_spec_survives_the_wire () =
  let spec =
    {
      Spec.default with
      Spec.ps = [ 0.01; 0.02 ];
      nus = [ 0.; 0.15; 0.4 ];
      seed = Int64.min_int;
      strategy = Nakamoto_sim.Adversary.Balance { group_boundary = 9 };
    }
  in
  let tag, payload =
    Msg.encode
      (Msg.Submit_campaign
         { Msg.sub_spec = spec; sub_journal = None; sub_resume = false })
  in
  match Msg.decode ~tag ~payload with
  | Ok (Msg.Submit_campaign { sub_spec; _ }) ->
    check_true "fingerprint preserved"
      (Spec.fingerprint sub_spec = Spec.fingerprint spec);
    Alcotest.(check string) "canonical json preserved" (Spec.to_json spec)
      (Spec.to_json sub_spec)
  | Ok _ -> Alcotest.fail "decoded to a different constructor"
  | Error e -> Alcotest.fail e

let test_empty_lease_request_is_typed_error () =
  (* Only protocol-1 peers sent Lease_request with an empty payload, and
     the handshake refuses them; the decoder reads it as a truncated
     payload, a typed error, never a batch of one and never a raise. *)
  let tag, _ = Msg.encode (Msg.Lease_request { max = 1 }) in
  match Msg.decode ~tag ~payload:"" with
  | Error e -> check_true "names the tag" (contains_substring ~affix:"tag 4" e)
  | Ok _ -> Alcotest.fail "an empty lease request must not decode"
  | exception e ->
    Alcotest.failf "decode raised %s" (Printexc.to_string e)

let test_unknown_tag_is_typed_error () =
  (match Msg.decode ~tag:200 ~payload:"" with
  | Error e -> check_true "names the tag" (contains_substring ~affix:"200" e)
  | Ok _ -> Alcotest.fail "unknown tag must not decode");
  (* Trailing garbage after a valid payload is typed too. *)
  let tag, payload =
    Msg.encode (Msg.Hello_ack { version = 3; telemetry = false })
  in
  match Msg.decode ~tag ~payload:(payload ^ "x") with
  | Error e ->
    check_true "mentions trailing bytes"
      (contains_substring ~affix:"trailing" e)
  | Ok _ -> Alcotest.fail "trailing garbage must not decode"

(* --- framing --- *)

let frame_bytes ~tag ~payload =
  let len = String.length payload + 1 in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.set b 4 (Char.chr tag);
  Bytes.blit_string payload 0 b 5 (String.length payload);
  Bytes.to_string b

let test_decoder_two_frames_one_feed () =
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed d
    (frame_bytes ~tag:1 ~payload:"aa" ^ frame_bytes ~tag:2 ~payload:"b");
  (match Frame.Decoder.next d with
  | `Frame (1, "aa") -> ()
  | _ -> Alcotest.fail "first frame");
  (match Frame.Decoder.next d with
  | `Frame (2, "b") -> ()
  | _ -> Alcotest.fail "second frame: bytes after the first must survive");
  match Frame.Decoder.next d with
  | `Awaiting -> ()
  | _ -> Alcotest.fail "then empty"

let test_decoder_oversized_length_rejected () =
  let d = Frame.Decoder.create ~max_payload:64 () in
  (* length field claims 1 MiB: must be rejected from the header alone,
     and the decoder stays poisoned afterwards. *)
  Frame.Decoder.feed d "\x00\x10\x00\x00";
  (match Frame.Decoder.next d with
  | `Bad e -> check_true "names the cap" (contains_substring ~affix:"cap" e)
  | _ -> Alcotest.fail "oversized length must be rejected");
  Frame.Decoder.feed d (frame_bytes ~tag:1 ~payload:"ok");
  match Frame.Decoder.next d with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "poisoned decoder must not resynchronize"

let test_decoder_zero_length_rejected () =
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed d "\x00\x00\x00\x00";
  match Frame.Decoder.next d with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "a zero-length frame has no tag byte"

let test_channel_truncated_frame_is_bad () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ch = Frame.Channel.of_fd a in
  let bytes = frame_bytes ~tag:7 ~payload:"truncated-payload" in
  let partial = String.sub bytes 0 (String.length bytes - 3) in
  let _ = Unix.write_substring b partial 0 (String.length partial) in
  Unix.close b;
  (match Frame.Channel.read ch with
  | `Bad e ->
    check_true "typed truncation" (contains_substring ~affix:"truncated" e)
  | r ->
    Alcotest.failf "EOF mid-frame must be `Bad, got %s"
      (match r with
      | `Eof -> "`Eof"
      | `Timeout -> "`Timeout"
      | `Frame _ -> "`Frame"
      | `Bad _ -> assert false));
  Unix.close a

let test_channel_clean_eof_and_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ch = Frame.Channel.of_fd a in
  (match Frame.Channel.read ~timeout:0.05 ch with
  | `Timeout -> ()
  | _ -> Alcotest.fail "no bytes within the deadline must be `Timeout");
  Unix.close b;
  (match Frame.Channel.read ch with
  | `Eof -> ()
  | _ -> Alcotest.fail "close at a frame boundary must be clean `Eof");
  Unix.close a

let test_channel_write_read_round_trip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cha = Frame.Channel.of_fd a and chb = Frame.Channel.of_fd b in
  Frame.Channel.write cha ~tag:5 ~payload:"ping";
  Frame.Channel.write cha ~tag:6 ~payload:"";
  (match Frame.Channel.read ~timeout:5. chb with
  | `Frame (5, "ping") -> ()
  | _ -> Alcotest.fail "first frame");
  (match Frame.Channel.read ~timeout:5. chb with
  | `Frame (6, "") -> ()
  | _ -> Alcotest.fail "empty payload frame");
  Unix.close a;
  Unix.close b

let test_channel_cap_governs_both_directions () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cha = Frame.Channel.of_fd ~max_payload:32 a in
  let chb = Frame.Channel.of_fd ~max_payload:32 b in
  (* In-cap traffic flows. *)
  Frame.Channel.write cha ~tag:1 ~payload:(String.make 32 'x');
  (match Frame.Channel.read ~timeout:5. chb with
  | `Frame (1, p) -> check_int "in-cap payload arrives" 32 (String.length p)
  | _ -> Alcotest.fail "in-cap frame must arrive");
  (* The write side enforces the channel's own cap, not the default:
     a frame this channel's peer must reject is refused at the source. *)
  (match Frame.Channel.write cha ~tag:2 ~payload:(String.make 33 'y') with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "oversized write must be refused at the channel cap");
  (* The read side rejects an oversized frame a raw fd smuggles past the
     channel (the raw write is governed only by the default cap). *)
  Frame.write b ~tag:3 ~payload:(String.make 64 'z');
  (match Frame.Channel.read ~timeout:5. cha with
  | `Bad e -> check_true "names the cap" (contains_substring ~affix:"cap" e)
  | _ -> Alcotest.fail "oversized frame must be `Bad at the reader's cap");
  Unix.close a;
  Unix.close b

(* --- the spec memo --- *)

(* Two specs whose JSON differs. *)
let spec_a = { Spec.default with Spec.seed = 11L }
let spec_b = { Spec.default with Spec.seed = 12L; nus = [ 0.2 ] }

let memo_shard =
  {
    Nakamoto_campaign.Shard.id = 5;
    cell_index = 0;
    trial_start = 5;
    trial_stop = 6;
    slot = 5;
  }

let grant_of spec =
  Msg.Lease_grant { grants = [ { Msg.lease_id = 9; shard = memo_shard } ]; spec }

(* The grant's payload written field by field with a fresh render. *)
let fresh_grant_payload spec =
  let w = Codec.writer () in
  Codec.add_list w
    (fun w (sh : Nakamoto_campaign.Shard.t) ->
      Codec.add_int w 9;
      List.iter (Codec.add_int w)
        [ sh.id; sh.cell_index; sh.trial_start; sh.trial_stop; sh.slot ])
    [ memo_shard ];
  Codec.add_string w (Spec.to_json spec);
  Codec.contents w

let decoded_spec (tag, payload) =
  match Msg.decode ~tag ~payload with
  | Ok (Msg.Lease_grant { spec; _ }) -> spec
  | Ok _ -> Alcotest.fail "decoded to a different constructor"
  | Error e -> Alcotest.failf "grant decode failed: %s" e

(* Encoding A, B, A — each spec evicting the memo's last entry — gives
   the bytes of a fresh render each time, decoding them gives back
   A, B, A, and a repeated A (a memo hit on both sides) still does. *)
let test_spec_memo_is_pure () =
  let specs = [ spec_a; spec_b; spec_a ] in
  let frames = List.map (fun s -> Msg.encode (grant_of s)) specs in
  List.iter2
    (fun s (_, payload) ->
      Alcotest.(check string) "grant bytes = a fresh render"
        (fresh_grant_payload s) payload)
    specs frames;
  List.iter2
    (fun s frame ->
      check_true "decoded spec = the encoded one" (decoded_spec frame = s))
    specs frames;
  let again = Msg.encode (grant_of spec_a) in
  check_true "a repeated grant decodes to the same spec"
    (decoded_spec again = spec_a)

(* The memos are per-domain: two domains encoding and decoding
   different specs at the same time each get their own spec back. *)
let test_spec_memo_per_domain () =
  let churn spec () =
    let ok = ref true in
    for _ = 1 to 500 do
      let tag, payload = Msg.encode (grant_of spec) in
      ok := !ok && payload = fresh_grant_payload spec;
      ok := !ok && decoded_spec (tag, payload) = spec
    done;
    !ok
  in
  let da = Domain.spawn (churn spec_a) and db = Domain.spawn (churn spec_b) in
  check_true "domain A kept its spec" (Domain.join da);
  check_true "domain B kept its spec" (Domain.join db)

let suite =
  [
    case "codec primitives round-trip bit-exactly" test_codec_primitives;
    case "codec truncation raises typed errors" test_codec_truncation_raises;
    case "every message round-trips through its frame" test_message_round_trips;
    case "a spec crosses the wire fingerprint-intact" test_spec_survives_the_wire;
    case "an empty lease request stays a typed error"
      test_empty_lease_request_is_typed_error;
    case "unknown tag and trailing garbage are typed errors"
      test_unknown_tag_is_typed_error;
    case "two frames in one chunk both arrive" test_decoder_two_frames_one_feed;
    case "oversized length is rejected at the cap"
      test_decoder_oversized_length_rejected;
    case "zero-length frame is rejected" test_decoder_zero_length_rejected;
    case "EOF mid-frame is `Bad, not `Eof" test_channel_truncated_frame_is_bad;
    case "clean EOF and timeout are distinct"
      test_channel_clean_eof_and_timeout;
    case "channel write/read round-trips" test_channel_write_read_round_trip;
    case "the channel cap governs both directions"
      test_channel_cap_governs_both_directions;
    case "the spec memo gives fresh-render bytes and values"
      test_spec_memo_is_pure;
    case "the spec memo is per-domain" test_spec_memo_per_domain;
  ]
