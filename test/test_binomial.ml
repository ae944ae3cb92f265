open Helpers
module Binomial = Nakamoto_prob.Binomial

let test_create_validation () =
  check_raises_invalid "negative trials" (fun () ->
      ignore (Binomial.create ~trials:(-1) ~p:0.5));
  check_raises_invalid "p > 1" (fun () ->
      ignore (Binomial.create ~trials:3 ~p:1.5));
  check_raises_invalid "nan p" (fun () ->
      ignore (Binomial.create ~trials:3 ~p:nan))

let test_moments () =
  let d = Binomial.create ~trials:100 ~p:0.3 in
  close "mean" 30. (Binomial.mean d);
  close "variance" 21. (Binomial.variance d)

let test_pmf_known_values () =
  let d = Binomial.create ~trials:4 ~p:0.5 in
  close "pmf 0" 0.0625 (Binomial.pmf d 0);
  close "pmf 2" 0.375 (Binomial.pmf d 2);
  close "pmf 4" 0.0625 (Binomial.pmf d 4);
  close "pmf out of range" 0. (Binomial.pmf d 5);
  close "pmf negative" 0. (Binomial.pmf d (-1))

let test_pmf_degenerate () =
  let zero = Binomial.create ~trials:5 ~p:0. in
  close "p=0 mass at 0" 1. (Binomial.pmf zero 0);
  close "p=0 elsewhere" 0. (Binomial.pmf zero 3);
  let one = Binomial.create ~trials:5 ~p:1. in
  close "p=1 mass at n" 1. (Binomial.pmf one 5);
  close "p=1 elsewhere" 0. (Binomial.pmf one 4)

let test_cdf_survival () =
  let d = Binomial.create ~trials:10 ~p:0.4 in
  close "cdf at n" 1. (Binomial.cdf d 10);
  close "cdf negative" 0. (Binomial.cdf d (-1));
  close "survival at n" 0. (Binomial.survival d 10);
  close "survival negative" 1. (Binomial.survival d (-1));
  for k = 0 to 10 do
    close
      (Printf.sprintf "cdf + survival = 1 at %d" k)
      1.
      (Binomial.cdf d k +. Binomial.survival d k)
  done

let test_paper_quantities () =
  (* alpha, abar, alpha1 of Eqs. 7-9 with mu*n = 30 honest miners. *)
  let d = Binomial.create ~trials:30 ~p:0.01 in
  close "abar" (0.99 ** 30.) (Binomial.prob_zero d);
  close "alpha" (1. -. (0.99 ** 30.)) (Binomial.prob_positive d);
  close "alpha1" (30. *. 0.01 *. (0.99 ** 29.)) (Binomial.prob_one d);
  close "log_prob_zero" (30. *. log 0.99) (Binomial.log_prob_zero d);
  (* Log domain must survive the paper's extreme scale. *)
  let extreme = Binomial.create ~trials:100_000 ~p:1e-18 in
  close ~rtol:1e-6 "extreme log_prob_zero" (-1e-13)
    (Binomial.log_prob_zero extreme)

let test_sampling_moments () =
  let g = rng () in
  let check_dist trials p =
    let d = Binomial.create ~trials ~p in
    let n = 20_000 in
    let sum = ref 0 and sumsq = ref 0 in
    for _ = 1 to n do
      let x = Binomial.sample g d in
      check_true "sample in range" (x >= 0 && x <= trials);
      sum := !sum + x;
      sumsq := !sumsq + (x * x)
    done;
    let mean = float_of_int !sum /. float_of_int n in
    let var =
      (float_of_int !sumsq /. float_of_int n) -. (mean *. mean)
    in
    check_true
      (Printf.sprintf "mean near (trials=%d p=%g): %g" trials p mean)
      (Float.abs (mean -. Binomial.mean d)
       < 4. *. sqrt (Binomial.variance d /. float_of_int n) +. 1e-9);
    check_true
      (Printf.sprintf "variance near (trials=%d p=%g): %g" trials p var)
      (Binomial.variance d = 0.
       || Float.abs (var -. Binomial.variance d) /. Binomial.variance d < 0.15)
  in
  check_dist 10 0.5;
  check_dist 50 0.02;
  check_dist 1000 0.001;
  check_dist 5000 0.02 (* mean 100 > 64: exercises the BTPE path *)

let test_sampling_degenerate () =
  let g = rng () in
  check_int "p=0" 0 (Binomial.sample g (Binomial.create ~trials:10 ~p:0.));
  check_int "p=1" 10 (Binomial.sample g (Binomial.create ~trials:10 ~p:1.));
  check_int "0 trials" 0 (Binomial.sample g (Binomial.create ~trials:0 ~p:0.5))

(* Pearson chi-square goodness of fit of the sampler against the exact
   pmf.  Bins with expected count < 5 are pooled into their neighbours
   (standard practice), and the acceptance threshold is a generous upper
   quantile of chi2(df): df + 4*sqrt(2 df) + 10 sits past the 99.99th
   percentile for every df used here, so a correct sampler essentially
   never fails while a biased envelope or mis-set squeeze fails loudly. *)
let chi_square_gof ~name ~trials ~p ~draws g =
  let d = Binomial.create ~trials ~p in
  let counts = Array.make (trials + 1) 0 in
  for _ = 1 to draws do
    let x = Binomial.sample g d in
    check_true (name ^ ": sample in range") (x >= 0 && x <= trials);
    counts.(x) <- counts.(x) + 1
  done;
  let n = float_of_int draws in
  (* Pool consecutive k into bins until each holds >= 5 expected. *)
  let chi2 = ref 0. and df = ref (-1) in
  let acc_obs = ref 0. and acc_exp = ref 0. in
  for k = 0 to trials do
    acc_obs := !acc_obs +. float_of_int counts.(k);
    acc_exp := !acc_exp +. (n *. Binomial.pmf d k);
    if !acc_exp >= 5. || k = trials then begin
      if !acc_exp > 0. then begin
        let diff = !acc_obs -. !acc_exp in
        chi2 := !chi2 +. (diff *. diff /. !acc_exp);
        incr df
      end;
      acc_obs := 0.;
      acc_exp := 0.
    end
  done;
  let df = float_of_int (max 1 !df) in
  let threshold = df +. (4. *. sqrt (2. *. df)) +. 10. in
  check_true
    (Printf.sprintf "%s: chi2 %.1f under threshold %.1f (df %.0f)" name !chi2
       threshold df)
    (!chi2 < threshold)

let test_sampler_goodness_of_fit () =
  let g = rng () in
  (* Small mean: the BINV inversion path. *)
  chi_square_gof ~name:"binv small mean" ~trials:30 ~p:0.1 ~draws:20_000 g;
  chi_square_gof ~name:"binv moderate" ~trials:200 ~p:0.25 ~draws:20_000 g;
  (* Large mean: the BTPE accept/reject path. *)
  chi_square_gof ~name:"btpe large mean" ~trials:5_000 ~p:0.1 ~draws:20_000 g;
  chi_square_gof ~name:"btpe paper scale" ~trials:100_000 ~p:0.01 ~draws:10_000 g;
  (* p > 1/2: the reflection wrapper (previously an underflow hazard). *)
  chi_square_gof ~name:"reflected btpe" ~trials:2_000 ~p:0.7 ~draws:20_000 g;
  chi_square_gof ~name:"reflected binv" ~trials:40 ~p:0.9 ~draws:20_000 g

let test_binv_btpe_boundary () =
  (* trials = 1000 straddling the mean <= 64 dispatch boundary: just below
     goes through BINV inversion, just above through BTPE.  Both sides must
     be deterministic per seed and statistically sound. *)
  let below = Binomial.create ~trials:1000 ~p:0.0639 in
  let above = Binomial.create ~trials:1000 ~p:0.0641 in
  let draw_seq d seed =
    let g = Nakamoto_prob.Rng.create ~seed in
    List.init 200 (fun _ -> Binomial.sample g d)
  in
  check_true "below boundary deterministic"
    (draw_seq below 123L = draw_seq below 123L);
  check_true "above boundary deterministic"
    (draw_seq above 123L = draw_seq above 123L);
  let mean_of l =
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let tol d =
    4. *. sqrt (Binomial.variance d /. 200.)
  in
  check_true "below boundary mean sane"
    (Float.abs (mean_of (draw_seq below 5L) -. Binomial.mean below) < tol below);
  check_true "above boundary mean sane"
    (Float.abs (mean_of (draw_seq above 5L) -. Binomial.mean above) < tol above);
  (* The dispatch also depends on trials: small trial counts stay on BINV
     even at high mean-per-trial. *)
  let small = Binomial.create ~trials:256 ~p:0.5 in
  check_true "small-trials deterministic"
    (draw_seq small 77L = draw_seq small 77L);
  check_true "small-trials mean sane"
    (Float.abs (mean_of (draw_seq small 5L) -. Binomial.mean small) < tol small)

let test_cdf_survival_edges () =
  (* Degenerate p and out-of-support k, on both sides of the support. *)
  List.iter
    (fun (trials, p) ->
      let d = Binomial.create ~trials ~p in
      let tag = Printf.sprintf "(n=%d, p=%g)" trials p in
      close (tag ^ " cdf below support") 0. (Binomial.cdf d (-1));
      close (tag ^ " cdf far below support") 0. (Binomial.cdf d (-100));
      close (tag ^ " survival below support") 1. (Binomial.survival d (-1));
      close (tag ^ " cdf at n") 1. (Binomial.cdf d trials);
      close (tag ^ " cdf above support") 1. (Binomial.cdf d (trials + 1));
      close (tag ^ " cdf far above support") 1. (Binomial.cdf d (trials + 100));
      close (tag ^ " survival at n") 0. (Binomial.survival d trials);
      close (tag ^ " survival above support") 0.
        (Binomial.survival d (trials + 1)))
    [ (0, 0.3); (7, 0.); (7, 1.); (7, 0.3); (200, 1e-9); (200, 1.) ];
  (* p = 0: all mass at 0; p = 1: all mass at n. *)
  let zero = Binomial.create ~trials:9 ~p:0. in
  close "p=0 cdf 0" 1. (Binomial.cdf zero 0);
  close "p=0 survival 0" 0. (Binomial.survival zero 0);
  let one = Binomial.create ~trials:9 ~p:1. in
  close "p=1 cdf n-1" 0. (Binomial.cdf one 8);
  close "p=1 survival n-1" 1. (Binomial.survival one 8);
  close "p=1 pmf n" 1. (Binomial.pmf one 9)

let test_trials_dispatch_boundary () =
  (* The sampler dispatches on [mean <= 64 || trials <= 256]: at p = 0.5,
     trials = 256 (mean 128) still takes BINV by the trials clause while
     trials = 257 crosses into BTPE.  Both sides must be in-range,
     deterministic per seed, and mean-correct; their pooled tallies must
     also survive an exact binomial test against the law itself. *)
  List.iter
    (fun trials ->
      let d = Binomial.create ~trials ~p:0.5 in
      let draw seed =
        let g = Nakamoto_prob.Rng.create ~seed in
        Array.init 400 (fun _ -> Binomial.sample g d)
      in
      let a = draw 9L in
      check_true
        (Printf.sprintf "trials=%d deterministic" trials)
        (a = draw 9L);
      Array.iter
        (fun k ->
          check_true
            (Printf.sprintf "trials=%d sample in range" trials)
            (k >= 0 && k <= trials))
        a;
      let total = Array.fold_left ( + ) 0 a in
      let pv =
        Nakamoto_prob.Stats.binomial_test ~hits:total ~trials:(400 * trials)
          ~p:0.5
      in
      check_true
        (Printf.sprintf "trials=%d pooled draws match the law (p=%.2e)" trials
           pv)
        (pv > 1e-9))
    [ 255; 256; 257; 258 ]

let props =
  let gen_dist =
    Arbitrary.(pair (int_range ~lo:0 ~hi:60 ()) (float_range ~lo:0. ~hi:1.))
  in
  [
    prop "pmf sums to 1" gen_dist (fun (trials, p) ->
        let d = Binomial.create ~trials ~p in
        let total = ref 0. in
        for k = 0 to trials do
          total := !total +. Binomial.pmf d k
        done;
        Float.abs (!total -. 1.) < 1e-9);
    prop "mean equals sum of k pmf(k)" gen_dist (fun (trials, p) ->
        let d = Binomial.create ~trials ~p in
        let m = ref 0. in
        for k = 0 to trials do
          m := !m +. (float_of_int k *. Binomial.pmf d k)
        done;
        Float.abs (!m -. Binomial.mean d) < 1e-9);
    prop "cdf monotone" gen_dist (fun (trials, p) ->
        let d = Binomial.create ~trials ~p in
        let ok = ref true in
        for k = 0 to trials - 1 do
          if Binomial.cdf d k > Binomial.cdf d (k + 1) +. 1e-12 then ok := false
        done;
        !ok);
    prop "prob_one <= prob_positive" gen_dist (fun (trials, p) ->
        let d = Binomial.create ~trials ~p in
        Binomial.prob_one d <= Binomial.prob_positive d +. 1e-12);
  ]

let suite =
  [
    case "create validation" test_create_validation;
    case "moments" test_moments;
    case "pmf known values" test_pmf_known_values;
    case "pmf degenerate p" test_pmf_degenerate;
    case "cdf/survival" test_cdf_survival;
    case "paper quantities (Eqs. 7-9)" test_paper_quantities;
    case "sampling moments" test_sampling_moments;
    case "sampling degenerate" test_sampling_degenerate;
    case "sampler goodness of fit (chi-square)" test_sampler_goodness_of_fit;
    case "BINV/BTPE dispatch boundary" test_binv_btpe_boundary;
    case "cdf/survival edge cases" test_cdf_survival_edges;
    case "trials dispatch boundary (256/257)" test_trials_dispatch_boundary;
  ]
  @ props
