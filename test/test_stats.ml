open Helpers
module Stats = Nakamoto_prob.Stats

let test_summary_basic () =
  let s = Stats.Summary.create () in
  check_int "empty count" 0 (Stats.Summary.count s);
  check_true "empty mean is nan" (Float.is_nan (Stats.Summary.mean s));
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_int "count" 8 (Stats.Summary.count s);
  close "mean" 5. (Stats.Summary.mean s);
  close "sample variance" (32. /. 7.) (Stats.Summary.variance s);
  close "min" 2. (Stats.Summary.min_value s);
  close "max" 9. (Stats.Summary.max_value s)

let test_summary_single () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 3.;
  close "mean of one" 3. (Stats.Summary.mean s);
  check_true "variance of one is nan" (Float.is_nan (Stats.Summary.variance s));
  check_raises_invalid "ci needs 2" (fun () ->
      ignore (Stats.Summary.confidence_interval_95 s))

let test_confidence_interval () =
  let s = Stats.Summary.create () in
  for i = 1 to 1000 do
    Stats.Summary.add s (float_of_int (i mod 10))
  done;
  let lo, hi = Stats.Summary.confidence_interval_95 s in
  let m = Stats.Summary.mean s in
  check_true "contains mean" (lo <= m && m <= hi);
  check_true "interval narrow for 1000 samples" (hi -. lo < 0.5)

let test_merge () =
  let all = Stats.Summary.create () in
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let g = rng () in
  for i = 1 to 500 do
    let x = Nakamoto_prob.Rng.float g in
    Stats.Summary.add all x;
    Stats.Summary.add (if i mod 2 = 0 then a else b) x
  done;
  let merged = Stats.Summary.merge a b in
  check_int "merged count" 500 (Stats.Summary.count merged);
  close "merged mean" (Stats.Summary.mean all) (Stats.Summary.mean merged);
  close ~rtol:1e-9 "merged variance" (Stats.Summary.variance all)
    (Stats.Summary.variance merged);
  close "merged min" (Stats.Summary.min_value all) (Stats.Summary.min_value merged);
  (* merging with empty is identity *)
  let empty = Stats.Summary.create () in
  let same = Stats.Summary.merge a empty in
  close "merge with empty" (Stats.Summary.mean a) (Stats.Summary.mean same)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -5.; 15. ];
  check_int "total" 6 (Stats.Histogram.total h);
  let c = Stats.Histogram.counts h in
  check_int "first bin holds 0.5 and the underflow" 2 c.(0);
  check_int "second bin" 2 c.(1);
  check_int "last bin holds 9.9 and the overflow" 2 c.(9);
  close "cdf estimate" (4. /. 6.) (Stats.Histogram.fraction_at_most h 2.);
  check_raises_invalid "bad range" (fun () ->
      ignore (Stats.Histogram.create ~lo:1. ~hi:1. ~bins:4))

let test_rates () =
  close "empirical rate" 0.25 (Stats.empirical_rate ~hits:25 ~trials:100);
  check_raises_invalid "hits > trials" (fun () ->
      ignore (Stats.empirical_rate ~hits:5 ~trials:3));
  let lo, hi = Stats.wilson_interval ~hits:25 ~trials:100 in
  check_true "wilson contains p_hat" (lo < 0.25 && 0.25 < hi);
  let lo0, _ = Stats.wilson_interval ~hits:0 ~trials:100 in
  close "wilson at 0 hits stays >= 0" 0. lo0;
  let _, hi1 = Stats.wilson_interval ~hits:100 ~trials:100 in
  close "wilson at all hits stays <= 1" 1. hi1

let props =
  [
    prop "welford mean equals arithmetic mean"
      Arbitrary.(
        list ~min_len:2 ~max_len:100 (float_range ~lo:(-100.) ~hi:100.))
      (fun xs ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) xs;
        let direct = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
        Float.abs (Stats.Summary.mean s -. direct) < 1e-9);
    prop "merge is order-insensitive"
      Arbitrary.(
        pair
          (list ~min_len:1 ~max_len:30 (float_range ~lo:(-10.) ~hi:10.))
          (list ~min_len:1 ~max_len:30 (float_range ~lo:(-10.) ~hi:10.)))
      (fun (xs, ys) ->
        let build l =
          let s = Stats.Summary.create () in
          List.iter (Stats.Summary.add s) l;
          s
        in
        let ab = Stats.Summary.merge (build xs) (build ys) in
        let ba = Stats.Summary.merge (build ys) (build xs) in
        Float.abs (Stats.Summary.mean ab -. Stats.Summary.mean ba) < 1e-9
        && Float.abs (Stats.Summary.variance ab -. Stats.Summary.variance ba)
           < 1e-9);
  ]

let test_chi_square_survival () =
  (* Textbook critical values: survival at the alpha = 0.05 / 0.01
     quantiles must recover alpha. *)
  List.iter
    (fun (df, x, alpha) ->
      close ~rtol:1e-6
        (Printf.sprintf "df=%d x=%g" df x)
        alpha
        (Stats.chi_square_survival ~df x))
    [
      (1, 3.841458820694124, 0.05);
      (2, 5.991464547107979, 0.05);
      (5, 11.070497693516351, 0.05);
      (10, 18.307038053275146, 0.05);
      (1, 6.634896601021213, 0.01);
    ];
  close "survival at 0" 1. (Stats.chi_square_survival ~df:3 0.);
  check_true "far tail is tiny but positive"
    (let s = Stats.chi_square_survival ~df:4 300. in
     s > 0. && s < 1e-50)

let test_chi_square_gof () =
  (* A perfectly matching sample has statistic ~ 0, p ~ 1. *)
  let t =
    Stats.chi_square_gof ~observed:[| 250; 250; 250; 250 |]
      ~expected:[| 250.; 250.; 250.; 250. |]
      ()
  in
  close "perfect fit statistic" 0. t.Stats.statistic;
  close "perfect fit p" 1. t.Stats.p_value;
  check_true "df pools to cells - 1" (t.Stats.df = 3.);
  (* A grossly biased one rejects. *)
  let bad =
    Stats.chi_square_gof ~observed:[| 700; 100; 100; 100 |]
      ~expected:[| 250.; 250.; 250.; 250. |]
      ()
  in
  check_true "biased sample rejected" (bad.Stats.p_value < 1e-10);
  (* Sparse-cell pooling: expecteds below the floor merge, so df shrinks
     and the test stays valid on skewed distributions. *)
  let pooled =
    Stats.chi_square_gof ~min_expected:5.
      ~observed:[| 96; 2; 1; 1 |]
      ~expected:[| 94.; 3.; 2.; 1. |]
      ()
  in
  check_true "pooling collapses sparse tail" (pooled.Stats.df = 1.);
  check_true "pooled fit accepted" (pooled.Stats.p_value > 0.05)

let test_homogeneity_and_ks () =
  let same = Stats.chi_square_homogeneity [| 50; 30; 20 |] [| 48; 33; 19 |] () in
  check_true "similar rows accepted" (same.Stats.p_value > 0.1);
  let diff =
    Stats.chi_square_homogeneity [| 500; 300; 200 |] [| 200; 300; 500 |] ()
  in
  check_true "different rows rejected" (diff.Stats.p_value < 1e-10);
  let xs = Array.init 300 (fun i -> float_of_int i /. 300.) in
  let shifted = Array.map (fun x -> x +. 0.5) xs in
  check_true "KS identical" ((Stats.ks_two_sample xs xs).Stats.p_value > 0.99);
  check_true "KS shifted"
    ((Stats.ks_two_sample xs shifted).Stats.p_value < 1e-10)

let test_binomial_test () =
  close "center is 1" 1. (Stats.binomial_test ~hits:5 ~trials:10 ~p:0.5);
  (* All-misses two-sided p doubles the smaller tail: 2 * 2^-10. *)
  close ~rtol:1e-12 "all misses" (2. /. 1024.)
    (Stats.binomial_test ~hits:0 ~trials:10 ~p:0.5);
  close ~rtol:1e-12 "all hits" (2. /. 1024.)
    (Stats.binomial_test ~hits:10 ~trials:10 ~p:0.5);
  close "degenerate p=0, hits=0" 1.
    (Stats.binomial_test ~hits:0 ~trials:10 ~p:0.);
  check_true "degenerate p=0, hits>0 rejects"
    (Stats.binomial_test ~hits:3 ~trials:10 ~p:0. = 0.);
  check_true "symmetric"
    (Stats.binomial_test ~hits:3 ~trials:10 ~p:0.5
    = Stats.binomial_test ~hits:7 ~trials:10 ~p:0.5);
  (match Stats.binomial_test ~hits:11 ~trials:10 ~p:0.5 with
  | _ -> Alcotest.fail "hits > trials should raise"
  | exception Invalid_argument _ -> ())

let suite =
  [
    case "summary basics" test_summary_basic;
    case "chi-square survival" test_chi_square_survival;
    case "chi-square goodness of fit" test_chi_square_gof;
    case "homogeneity and KS" test_homogeneity_and_ks;
    case "exact binomial test" test_binomial_test;
    case "summary single sample" test_summary_single;
    case "confidence interval" test_confidence_interval;
    case "merge" test_merge;
    case "histogram" test_histogram;
    case "empirical rate / wilson" test_rates;
  ]
  @ props
