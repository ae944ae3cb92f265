(* Telemetry merge laws and one distributional check.

   Snapshots must form a commutative monoid under merge — that is the
   entire soundness argument for folding per-domain and per-shard
   registries in arbitrary groupings.  Float sums make associativity
   exact only when every observed value (and every partial sum) is an
   exactly-representable dyadic, so the generators draw multiples of
   2^-10 with bounded magnitude; under that regime structural equality
   [=] is the right notion and the laws hold bit-for-bit. *)

open Helpers
module Arb = P.Arbitrary
module Tel = Nakamoto_telemetry
module Counter = Tel.Counter
module Histogram = Tel.Histogram
module Span = Tel.Span
module Sim = Nakamoto_sim

(* --- Generators ---------------------------------------------------- *)

(* Dyadic observations: k / 1024 with k in [0, 2^20], so values span
   [0, 1024] at 2^-10 resolution.  Sums of a few hundred of them stay
   far below 2^53 * 2^-10 and are therefore exact. *)
let dyadic =
  Arb.map
    ~print:(fun v -> Printf.sprintf "%h" v)
    (fun k -> float_of_int k /. 1024.)
    (Arb.int_range ~lo:0 ~hi:(1 lsl 20) ())

let values = Arb.list ~min_len:0 ~max_len:40 dyadic

let counter_snapshot =
  Arb.map ~print:string_of_int Counter.snapshot
    (Arb.map
       (fun k ->
         let c = Counter.create () in
         Counter.add c k;
         c)
       (Arb.int_range ~lo:0 ~hi:1_000_000 ()))

(* All fixed histograms in a law share one bounds array; merge requires
   identical layouts, and the law quantifies over observations, not
   layouts. *)
let law_bounds = [| 0.5; 1.; 8.; 64.; 512. |]

let fixed_snapshot_of vs =
  let h = Histogram.fixed ~bounds:law_bounds in
  List.iter (Histogram.observe h) vs;
  Histogram.snapshot h

let log2_snapshot_of vs =
  let h = Histogram.log2 () in
  List.iter (Histogram.observe h) vs;
  Histogram.snapshot h

let span_snapshot_of vs =
  let sp = Span.create ~clock:(fun () -> 0.) () in
  List.iter (Span.record sp) vs;
  Span.snapshot sp

let print_hist (s : Histogram.snapshot) =
  Printf.sprintf "{count=%d; sum=%h; min=%h; max=%h}" s.Histogram.s_count
    s.Histogram.s_sum s.Histogram.s_min s.Histogram.s_max

let fixed_snapshot = Arb.map ~print:print_hist fixed_snapshot_of values
let log2_snapshot = Arb.map ~print:print_hist log2_snapshot_of values
let span_snapshot = Arb.map ~print:print_hist span_snapshot_of values

let triple a = Arb.pair (Arb.pair a a) a

(* --- The monoid laws, per instrument ------------------------------- *)

let monoid_cases tag snap_arb ~merge ~empty =
  [
    prop ~count:1000
      (tag ^ " merge is associative")
      (triple snap_arb)
      (holds (fun ((a, b), c) ->
           if merge (merge a b) c <> merge a (merge b c) then
             failwith "associativity violated"));
    prop ~count:1000
      (tag ^ " merge is commutative")
      (Arb.pair snap_arb snap_arb)
      (holds (fun (a, b) ->
           if merge a b <> merge b a then failwith "commutativity violated"));
    prop ~count:1000
      (tag ^ " empty is the identity")
      snap_arb
      (holds (fun a ->
           if merge empty a <> a || merge a empty <> a then
             failwith "identity violated"));
  ]

(* Splitting one observation stream across two instruments and merging
   their snapshots must equal observing the whole stream in one — the
   law that makes per-shard registries equivalent to a single global
   one. *)
let split_stream_case tag snapshot_of =
  prop ~count:1000
    (tag ^ " merged split streams equal the single stream")
    (Arb.pair values values)
    (holds (fun (xs, ys) ->
         let together = snapshot_of (xs @ ys) in
         let merged = Histogram.merge (snapshot_of xs) (snapshot_of ys) in
         if merged <> together then
           failwith
             (Printf.sprintf "split %s <> single %s" (print_hist merged)
                (print_hist together))))

let counter_split_case =
  prop ~count:1000 "counter merged split streams equal the single stream"
    (Arb.pair
       (Arb.list ~min_len:0 ~max_len:40 (Arb.int_range ~lo:0 ~hi:10_000 ()))
       (Arb.list ~min_len:0 ~max_len:40 (Arb.int_range ~lo:0 ~hi:10_000 ())))
    (holds (fun (xs, ys) ->
         let count is =
           let c = Counter.create () in
           List.iter (Counter.add c) is;
           Counter.snapshot c
         in
         if Counter.merge (count xs) (count ys) <> count (xs @ ys) then
           failwith "split counter streams diverge"))

(* --- Interarrival law: log2 histogram against the geometric law ----- *)

(* With nu = 0 and the Idle adversary, a round carries at least one
   honest block with probability alpha = 1 - (1-p)^n, independently
   across rounds, so gaps between successive block rounds are iid
   Geometric(alpha) on {1, 2, ...}.  The executor's log2 interarrival
   histogram therefore has bucket masses
     P(bucket i) = (1-alpha)^(2^(i-33) - 1) - (1-alpha)^(2^(i-32) - 1)
   for i >= 33 (gaps are >= 1, so lower buckets are empty). *)
let test_interarrival_matches_geometric () =
  let n = 50 and rounds = 60_000 in
  (* alpha ~ 0.1: enough blocks for ~6000 gaps, gaps long enough to
     populate several octaves. *)
  let p = 1. -. (0.9 ** (1. /. float_of_int n)) in
  let cfg =
    {
      Sim.Config.default with
      Sim.Config.n;
      p;
      nu = 0.;
      delta = 2;
      rounds;
      seed = 20260806L;
      strategy = Sim.Adversary.Idle;
      mining_mode = Sim.Config.Aggregate;
    }
  in
  let alpha = 1. -. ((1. -. p) ** float_of_int n) in
  let reg = Tel.Registry.create ~clock:(fun () -> 0.) () in
  ignore (Sim.Execution.run ~telemetry:reg cfg);
  let snap = Tel.Registry.snapshot reg in
  let counts =
    match Tel.Registry.Snapshot.find snap "sim_block_interarrival_rounds" with
    | Some (Tel.Registry.Snapshot.Histogram h) -> h.Histogram.s_counts
    | _ -> Alcotest.fail "sim_block_interarrival_rounds missing"
  in
  (* Gaps are integers >= 1: nothing may land below bucket 33. *)
  for i = 0 to 32 do
    check_int (Printf.sprintf "bucket %d stays empty" i) 0 counts.(i)
  done;
  let total = Array.fold_left ( + ) 0 counts in
  check_true "thousands of gaps observed" (total > 3000);
  (* Buckets 33..44 cover gaps up to 4096 rounds; the final cell takes
     the (vanishing) geometric tail so the masses sum to one. *)
  let first = 33 and last = 44 in
  let q = 1. -. alpha in
  let survival g = q ** (float_of_int g -. 1.) in
  let cells = last - first + 2 in
  let observed = Array.make cells 0 in
  let expected = Array.make cells 0. in
  for i = first to last do
    observed.(i - first) <- counts.(i);
    let lo = 1 lsl (i - 33) and hi = 1 lsl (i - 32) in
    expected.(i - first) <- (survival lo -. survival hi) *. float_of_int total
  done;
  for i = last + 1 to Array.length counts - 1 do
    observed.(cells - 1) <- observed.(cells - 1) + counts.(i)
  done;
  expected.(cells - 1) <- survival (1 lsl (last - 32)) *. float_of_int total;
  P.Stat.assert_family ~family:"telemetry interarrival"
    [
      P.Stat.chi_square_gof ~label:"log2 buckets vs geometric law"
        ~observed ~expected;
    ]

let suite =
  monoid_cases "counter" counter_snapshot ~merge:Counter.merge
    ~empty:Counter.empty
  @ monoid_cases "fixed histogram" fixed_snapshot ~merge:Histogram.merge
      ~empty:Histogram.empty
  @ monoid_cases "log2 histogram" log2_snapshot ~merge:Histogram.merge
      ~empty:Histogram.empty
  @ monoid_cases "span" span_snapshot ~merge:Span.merge ~empty:Span.empty
  @ [
      counter_split_case;
      split_stream_case "fixed histogram" fixed_snapshot_of;
      split_stream_case "log2 histogram" log2_snapshot_of;
      split_stream_case "span" span_snapshot_of;
      case "interarrival histogram matches the geometric law"
        test_interarrival_matches_geometric;
    ]
