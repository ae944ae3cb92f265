open Helpers
module Confirmation = Nakamoto_core.Confirmation
module Params = Nakamoto_core.Params

let test_overtake_closed_form () =
  (* ratio 0.4, deficit 3 -> 0.4^4. *)
  close "basic" (0.4 ** 4.)
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
       ~deficit:3);
  close "deficit 0 still needs one net block" 0.4
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
       ~deficit:0);
  close "stronger attacker is certain" 1.
    (Confirmation.overtake_probability ~honest_rate:0.04 ~adversary_rate:0.1
       ~deficit:5);
  close "equal rates certain" 1.
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.1
       ~deficit:2);
  check_raises_invalid "negative deficit" (fun () ->
      ignore
        (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
           ~deficit:(-1)));
  check_raises_invalid "zero rate" (fun () ->
      ignore
        (Confirmation.overtake_probability ~honest_rate:0. ~adversary_rate:0.1
           ~deficit:1))

let test_bounded_race_converges_to_unbounded () =
  let closed =
    Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
      ~deficit:2
  in
  let at g =
    Confirmation.overtake_probability_bounded ~honest_rate:0.1
      ~adversary_rate:0.04 ~deficit:2 ~give_up_behind:g
  in
  check_true "small cutoff underestimates" (at 5 < closed);
  close ~rtol:1e-6 "large cutoff converges" closed (at 80);
  check_true "monotone in cutoff" (at 5 <= at 10 && at 10 <= at 40);
  check_raises_invalid "cutoff must exceed deficit" (fun () ->
      ignore
        (Confirmation.overtake_probability_bounded ~honest_rate:0.1
           ~adversary_rate:0.04 ~deficit:5 ~give_up_behind:5))

let test_nakamoto_formula () =
  (* Known anchors from the Bitcoin whitepaper's q = 0.1 table:
     z=1 -> 0.2045873, z=5 -> 0.0009137, z=10 -> 0.0000012.  The
     whitepaper parameterizes by the attacker share q of total power with
     lambda = z q/p, p = 1-q — our ratio = q/p. *)
  let p_at z =
    Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9) ~confirmations:z
  in
  check_true
    (Printf.sprintf "z=1 near 0.2046 (%.7f)" (p_at 1))
    (Float.abs (p_at 1 -. 0.2045873) < 1e-4);
  check_true
    (Printf.sprintf "z=5 near 0.0009137 (%.7f)" (p_at 5))
    (Float.abs (p_at 5 -. 0.0009137) < 1e-5);
  check_true
    (Printf.sprintf "z=10 near 1.2e-6 (%.3e)" (p_at 10))
    (Float.abs (p_at 10 -. 0.0000012) < 5e-7);
  close "ratio >= 1 is hopeless" 1.
    (Confirmation.nakamoto_double_spend ~ratio:1.2 ~confirmations:50);
  check_raises_invalid "z = 0" (fun () ->
      ignore (Confirmation.nakamoto_double_spend ~ratio:0.3 ~confirmations:0));
  check_raises_invalid "NaN ratio" (fun () ->
      ignore (Confirmation.nakamoto_double_spend ~ratio:nan ~confirmations:3))

(* The depth search needs the float P(z) nonincreasing wherever it can
   cross epsilon.  Far below any practical epsilon the [1 - sum] form
   bottoms out in rounding noise that does wiggle (around 1e-11 by
   z = 2000, 2e-10 by z = 10_000), so the walk stops once P falls under
   1e-9, the smallest epsilon the differential property draws, or at
   z = 2000, its largest limit.  For the default epsilon 1e-3 it goes on
   to the default limit, which covers the deep depths of ratios up to
   0.95 (4952 at 0.95). *)
let test_nakamoto_monotone () =
  for i = 1 to 19 do
    let ratio = 0.05 *. float_of_int i in
    let p z = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
    let rec walk z prev =
      if
        (z < 2000 && prev >= 1e-9)
        || (z < Confirmation.default_depth_limit && prev >= 1e-3)
      then begin
        let next = p (z + 1) in
        if next > prev then
          Alcotest.failf "ratio %g: P(%d) = %.17g > P(%d) = %.17g" ratio
            (z + 1) next z prev;
        walk (z + 1) next
      end
    in
    walk 1 (p 1)
  done

(* The linear scan the galloping search replaced, kept as the oracle. *)
let linear_confirmations ~limit ~ratio ~epsilon =
  let rec scan z =
    if z > limit then None
    else if Confirmation.nakamoto_double_spend ~ratio ~confirmations:z <= epsilon
    then Some z
    else scan (z + 1)
  in
  scan 1

let test_confirmations_for () =
  let z =
    match Confirmation.confirmations_for ~ratio:(0.1 /. 0.9) ~epsilon:0.001 () with
    | Some z -> z
    | None -> Alcotest.fail "q=0.1 must settle"
  in
  (* The whitepaper's "solving for P < 0.1%" table: q=0.1 -> z=5. *)
  check_int "whitepaper q=0.1 row" 5 z;
  (* z is the first depth at or below epsilon. *)
  check_true "z achieves epsilon"
    (Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9) ~confirmations:z
    <= 0.001);
  check_true "z-1 does not"
    (z = 1
    || Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9)
         ~confirmations:(z - 1)
       > 0.001);
  (* An exhausted search limit is an answer, not a crash. *)
  check_true "limit exhaustion is None"
    (Confirmation.confirmations_for ~limit:3 ~ratio:0.9 ~epsilon:1e-9 () = None);
  check_true "a ratio near 1 is unsettleable"
    (Confirmation.confirmations_for ~limit:2000 ~ratio:0.999 ~epsilon:1e-6 ()
    = None);
  check_true "unsettleable at the default limit"
    (Confirmation.confirmations_for ~ratio:0.999 ~epsilon:1e-3 () = None);
  (* Below min_epsilon the float P(z) wiggles at its rounding floor: at
     ratio 0.62 and epsilon 1e-12 a scan stops at 279 while every
     galloping probe from 512 on reads noise above epsilon, so the
     search would call the ratio unsettleable.  It refuses instead. *)
  check_raises_invalid "epsilon below the rounding floor" (fun () ->
      ignore (Confirmation.confirmations_for ~ratio:0.62 ~epsilon:1e-12 ()));
  check_raises_invalid "assess: epsilon below the rounding floor" (fun () ->
      ignore
        (Confirmation.assess ~epsilon:1e-12
           (Params.of_c ~n:1e5 ~delta:10. ~nu:0.2 ~c:6.)));
  check_true "min_epsilon itself is accepted"
    (Confirmation.confirmations_for ~ratio:0.3 ~epsilon:Confirmation.min_epsilon
       ()
    <> None);
  check_raises_invalid "epsilon range" (fun () ->
      ignore (Confirmation.confirmations_for ~ratio:0.3 ~epsilon:0. ()));
  check_raises_invalid "limit range" (fun () ->
      ignore (Confirmation.confirmations_for ~limit:0 ~ratio:0.3 ~epsilon:0.1 ()))

let test_assess () =
  let p = Params.of_c ~n:1e5 ~delta:10. ~nu:0.2 ~c:6. in
  let a = Confirmation.assess p in
  check_true "ratio < 1 inside the region" (a.rate_ratio < 1.);
  check_true "risk below default epsilon" (a.residual_risk <= 1e-3);
  check_true "confirmations grow with nu"
    ((Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.3 ~c:6.)).confirmations
    > a.confirmations);
  check_true "stricter epsilon needs more"
    ((Confirmation.assess ~epsilon:1e-6 p).confirmations > a.confirmations);
  check_raises_invalid "nu = 0" (fun () ->
      ignore (Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0. ~c:6.)));
  check_raises_invalid "outside the consistency region" (fun () ->
      ignore (Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.45 ~c:0.5)))

(* assess-settle's strata midpoints: every depth must be a first
   crossing of epsilon, and a subsample must equal the linear scan. *)
let test_settle_strata () =
  let epsilon = 1e-3 in
  for i = 0 to 999 do
    let ratio = 0.05 +. (0.9 *. (float_of_int i +. 0.5) /. 1000.) in
    let p z = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
    match Confirmation.confirmations_for ~ratio ~epsilon () with
    | None -> Alcotest.failf "ratio %g: no depth" ratio
    | Some z ->
      if not (p z <= epsilon && (z = 1 || p (z - 1) > epsilon)) then
        Alcotest.failf "ratio %g: depth %d is not a first crossing" ratio z;
      if i mod 50 = 0 then
        check_true
          (Printf.sprintf "ratio %g matches the linear scan" ratio)
          (linear_confirmations ~limit:Confirmation.default_depth_limit
             ~ratio ~epsilon
          = Some z)
  done

let test_search_probes () =
  check_true "depth 1 is one probe" (Confirmation.search_probes 1 = [ 1 ]);
  check_true "gallop then bisect"
    (Confirmation.search_probes 5 = [ 1; 2; 4; 8; 6; 5 ]);
  let limit = Confirmation.default_depth_limit in
  check_true "the last gallop probe is capped at the limit"
    (List.filteri (fun i _ -> i < 15) (Confirmation.search_probes limit)
    = List.init 14 (fun i -> 1 lsl i) @ [ limit ]);
  check_raises_invalid "depth past the limit" (fun () ->
      ignore (Confirmation.search_probes (limit + 1)));
  check_raises_invalid "depth 0" (fun () ->
      ignore (Confirmation.search_probes 0));
  for depth = 1 to 5000 do
    let probes = Confirmation.search_probes depth in
    let above = List.length (List.filter (fun z -> z > depth) probes) in
    let log2_ceil = ref 0 in
    while 1 lsl !log2_ceil < depth do incr log2_ceil done;
    if not (List.mem depth probes && above <= !log2_ceil) then
      Alcotest.failf "depth %d: %d probes above, bound %d" depth above
        !log2_ceil
  done

let test_table_rendering () =
  let a = Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.1 ~c:6.) in
  let t = Confirmation.to_table [ a ] in
  check_int "one row" 1 (Nakamoto_numerics.Table.row_count t)

let props =
  [
    prop "galloping search equals the linear scan"
      QCheck2.Gen.(
        triple (float_range 1e-6 0.999) (float_range (log 1e-9) (log 0.5))
          (int_range 1 2000))
      (fun (ratio, log_epsilon, limit) ->
        let epsilon = Float.max Confirmation.min_epsilon (exp log_epsilon) in
        Confirmation.confirmations_for ~limit ~ratio ~epsilon ()
        = linear_confirmations ~limit ~ratio ~epsilon);
    prop "overtake decreasing in deficit"
      QCheck2.Gen.(pair (float_range 0.1 0.9) (int_range 0 20))
      (fun (ratio, deficit) ->
        let h = 0.1 in
        let a = h *. ratio in
        Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
          ~deficit:(deficit + 1)
        <= Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
             ~deficit
           +. 1e-12);
    prop ~count:50 "bounded race matches closed form at large cutoff"
      QCheck2.Gen.(pair (float_range 0.1 0.7) (int_range 0 4))
      (fun (ratio, deficit) ->
        let h = 0.1 in
        let a = h *. ratio in
        let closed =
          Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
            ~deficit
        in
        let bounded =
          Confirmation.overtake_probability_bounded ~honest_rate:h
            ~adversary_rate:a ~deficit ~give_up_behind:120
        in
        Float.abs (closed -. bounded) < 1e-5);
  ]

let suite =
  [
    case "overtake closed form" test_overtake_closed_form;
    case "bounded race converges" test_bounded_race_converges_to_unbounded;
    case "Nakamoto formula anchors" test_nakamoto_formula;
    case "Nakamoto monotone" test_nakamoto_monotone;
    case "confirmations_for" test_confirmations_for;
    case "settle strata match the linear scan" test_settle_strata;
    case "search probes" test_search_probes;
    case "assess" test_assess;
    case "table rendering" test_table_rendering;
  ]
  @ props
