(** Finite discrete-time Markov chains with sparse rows.

    States are integers [0 .. size-1], optionally labelled.  Rows store
    only nonzero transition probabilities, which keeps the paper's suffix
    chain [C_F] (a union of two long cycles: sparse, 2–3 entries per row)
    cheap even for thousands of states. *)

type t

val create :
  ?labels:(int -> string) -> size:int -> rows:(int * float) list array -> unit -> t
(** [create ~size ~rows ()] validates the chain: [Array.length rows = size],
    every target index in range, probabilities nonnegative, each row
    summing to [1.] within [1e-9].
    @raise Invalid_argument otherwise. *)

val size : t -> int
val label : t -> int -> string
(** [label t i] is the state label ([string_of_int] by default). *)

val row : t -> int -> (int * float) list
(** [row t i] lists the nonzero transitions out of state [i]. *)

val probability : t -> src:int -> dst:int -> float
(** [probability t ~src ~dst] is the one-step transition probability. *)

val is_irreducible : t -> bool
(** [is_irreducible t] holds iff the support graph is strongly connected. *)

val period : t -> int
(** [period t] is the period of state [0]'s communicating class. *)

val is_ergodic : t -> bool
(** [is_ergodic t] holds iff the chain is irreducible and aperiodic —
    exactly the properties the paper asserts for [C_F] and [C_F||P]. *)

val step_distribution : t -> float array -> float array
(** [step_distribution t d] is the one-step pushforward [d P].
    @raise Invalid_argument on size mismatch. *)

val stationary_power_iteration :
  ?tol:float -> ?max_iter:int -> t -> float array
(** [stationary_power_iteration t] iterates [d <- d P] from uniform until
    the L1 change is below [tol] (default [1e-14]).
    @raise Failure if it does not converge within [max_iter]
    (default 1_000_000) iterations; the message reports the iteration
    budget, [tol] and the last L1 residual, so the caller can tell a
    periodic chain (residual stuck high) from a tolerance set below
    what the spectral gap can deliver (residual small but above
    [tol]). *)

val stationary_linear_solve : t -> float array
(** [stationary_linear_solve t] solves [(P^T - I) pi = 0, sum pi = 1]
    directly (replacing one equation with the normalization), which is
    exact up to LU rounding and independent of mixing speed.
    @raise Failure on singular systems (reducible chains). *)

val to_sparse : t -> Sparse.t
(** [to_sparse t] is the transition matrix as a {!Sparse.t} CSR — the
    rows are already sparse, so this is a flat repack. *)

val sparse_crossover : int
(** State count above which {!stationary_auto} (and the call sites
    routed through it) switch from the dense LU solve to the sparse
    path.  Below or at this size the dense result is bit-pinned. *)

val stationary_sparse :
  ?telemetry:Nakamoto_telemetry.Registry.t -> t -> float array
(** [stationary_sparse t] computes the stationary distribution through
    the sparse substrate: {!Sparse.stationary_censor} (GTH state
    reduction — exact up to rounding, O(nnz) on the paper's ladder
    chains) first, falling back to {!Sparse.stationary_power} when
    censoring exceeds its fill budget.
    @raise Invalid_argument on a reducible chain (from the censor) and
    @raise Failure when the power fallback does not converge. *)

val stationary_auto :
  ?telemetry:Nakamoto_telemetry.Registry.t -> t -> float array
(** [stationary_auto t] is {!stationary_linear_solve} when
    [size t <= sparse_crossover] (bit-identical to the historical dense
    results) and {!stationary_sparse} above it. *)

val total_variation : float array -> float array -> float
(** [total_variation a b] is [0.5 * sum_i |a_i - b_i|].
    @raise Invalid_argument on length mismatch. *)

val mixing_time : ?epsilon:float -> ?horizon:int -> t -> int option
(** [mixing_time t] is the smallest [s] such that from every deterministic
    start the distribution after [s] steps is within [epsilon] (default
    [1/8], the paper's choice) of stationary in total variation, or [None]
    if [horizon] (default [100_000]) steps do not suffice.  Exact (iterates
    all [size] start distributions), so intended for small chains. *)

val simulate :
  rng:Nakamoto_prob.Rng.t -> t -> start:int -> steps:int -> int array
(** [simulate ~rng t ~start ~steps] samples a trajectory of [steps] states
    beginning at [start] (the returned array has length [steps] and starts
    with the state after one transition).
    @raise Invalid_argument if [start] is out of range or [steps < 0]. *)

val occupancy :
  rng:Nakamoto_prob.Rng.t -> t -> start:int -> steps:int ->
  target:(int -> bool) -> int
(** [occupancy ~rng t ~start ~steps ~target] counts visits to states
    satisfying [target] along a fresh [steps]-step trajectory — the
    Monte-Carlo counterpart of [T * pi(target)]. *)

val visit_counts :
  rng:Nakamoto_prob.Rng.t -> t -> start:int -> steps:int -> int array
(** [visit_counts ~rng t ~start ~steps] samples a fresh [steps]-step
    trajectory from [start] and returns per-state visit counts (summing to
    [steps]) — the empirical occupancy a chi-square test compares against
    [steps * pi] (streaming: O(size) memory regardless of [steps]).
    @raise Invalid_argument if [start] is out of range or [steps < 0]. *)

val restrict_support : t -> (int -> int list)
(** [restrict_support t] is the successor function of the support graph,
    for reuse with {!Structure}. *)
