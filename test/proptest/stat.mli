(** Statistical assertions for properties over random processes.

    A distributional property cannot assert exact equality; it asserts
    that a test statistic is not absurd under the null.  Every check here
    produces an exact or asymptotic p-value ({!Nakamoto_prob.Stats}), and
    {!assert_family} applies a Bonferroni-corrected threshold across the
    family, sized (default [alpha = 1e-6]) so that at the committed seeds
    a correct implementation passes deterministically with orders of
    magnitude of margin — CI never retries — while a wrong distribution
    (p-values collapsing to ~1e-30) still fails instantly. *)

type check = {
  label : string;
  p_value : float;
  detail : string;  (** statistic rendering for failure reports *)
}

exception Rejected of string
(** Raised by {!assert_family} with every failing check's label,
    p-value, and statistic. *)

val chi_square_gof :
  label:string -> observed:int array -> expected:float array -> check
(** Pearson goodness-of-fit of counts against expected masses (pooled per
    {!Nakamoto_prob.Stats.chi_square_gof}). *)

val homogeneity : label:string -> int array -> int array -> check
(** Two count vectors drawn from one distribution? *)

val ks : label:string -> float array -> float array -> check
(** Two-sample Kolmogorov-Smirnov. *)

val binomial : label:string -> hits:int -> trials:int -> p:float -> check
(** Exact two-sided binomial test. *)

val proportions :
  label:string -> hits_a:int -> trials_a:int -> hits_b:int -> trials_b:int ->
  check
(** Two empirical rates equal?  (2 x 2 homogeneity.) *)

val assert_family : ?alpha:float -> family:string -> check list -> unit
(** [assert_family ~family checks] rejects iff any check's p-value falls
    below [alpha / length checks].
    @raise Rejected listing the offending checks.
    @raise Invalid_argument on an empty family. *)
