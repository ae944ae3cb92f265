(** The suffix-of-previous-and-current-states Markov chain [C_F]
    (Figure 2, Section V-A).

    States are the 2Δ+1 suffix classes of Eq. (29):
    - [Recent a] for [a = 0 .. delta-1]: the suffix [HN^{<=Δ-1}HN^a]
      (with [a = 0] meaning [HN^{<=Δ-1}H] — the last round was H and the
      H before it was at distance [<= Δ]);
    - [Deep]: [HN^{>=Δ}] — at least Δ trailing N rounds;
    - [Deep_recent b] for [b = 0 .. delta-1]: [HN^{>=Δ}HN^b] — an H broke
      a deep N run [b] rounds ago.

    The module provides the explicit chain (for any [delta] small enough
    to enumerate), the closed-form stationary distribution of
    Eq. (37a)–(37d) (for arbitrary [delta], in the log domain), and the
    online classifier that maps a state series to its suffix class — the
    bridge between simulation traces and the chain. *)

type state =
  | Recent of int  (** [HN^{<=Δ-1}HN^a], [a] in [0, delta-1] *)
  | Deep  (** [HN^{>=Δ}] *)
  | Deep_recent of int  (** [HN^{>=Δ}HN^b], [b] in [0, delta-1] *)

val state_count : delta:int -> int
(** [2 * delta + 1]. *)

val index_of_state : delta:int -> state -> int
(** Bijection onto [0 .. 2 delta] ([Recent a -> a], [Deep -> delta],
    [Deep_recent b -> delta + 1 + b]).
    @raise Invalid_argument on out-of-range components. *)

val state_of_index : delta:int -> int -> state
(** Inverse of {!index_of_state}. *)

val state_label : state -> string
(** Human-readable form, e.g. ["HN<=D-1.H.N^3"]. *)

val step : delta:int -> state -> h:bool -> state
(** [step ~delta s ~h] is the deterministic successor suffix class when the
    next round is H ([h = true]) or N — transition rules ①–④. *)

val build : delta:int -> alpha:float -> Nakamoto_markov.Chain.t
(** [build ~delta ~alpha] is the explicit 2Δ+1-state chain where each round
    is H with probability [alpha].
    @raise Invalid_argument unless [delta >= 1] and [alpha] in (0, 1). *)

val build_sparse : delta:int -> alpha:float -> Nakamoto_markov.Sparse.t
(** [build_sparse ~delta ~alpha] emits {!build}'s rows (two transitions
    per state) straight into CSR form without materializing them, so Δ
    in the thousands costs O(Δ) memory.
    @raise Invalid_argument as in {!build}. *)

val stationary_closed_form : delta:int -> alpha:float -> float array
(** Eq. (37): the stationary probabilities indexed by
    {!index_of_state}.  Sums to 1 exactly (up to rounding).
    @raise Invalid_argument as in {!build}. *)

val log_stationary : delta:float -> log_abar:float -> state:state -> float
(** Closed form in the log domain for arbitrary (real) [delta]:
    [log pi_F(state)].  [Recent a]/[Deep_recent b] components must still
    satisfy [0 <= a, b < delta].
    @raise Invalid_argument on out-of-range components, [delta < 1], or
    [log_abar >= 0.]. *)

val classify_series : delta:int -> Nakamoto_sim.Round_state.t array -> state option array
(** [classify_series ~delta states] computes [F_t] for every prefix of the
    series; [None] until the first H has appeared (before that the suffix
    matches no class).  Mirrors the paper's "after at least two H
    happened" caveat conservatively: a leading all-N prefix is
    unclassifiable, everything after the first H is. *)

val to_dot : delta:int -> alpha:float -> string
(** GraphViz rendering of the chain — the reproduction of Figure 2. *)
