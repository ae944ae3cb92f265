(** Compressed-sparse-row matrices and structure-aware stationary solvers.

    The paper's chains are sparse and nearly skip-free: the suffix chain
    [C_F] has 2Δ+1 states with exactly two transitions per row (climb the
    ladder or restart at the base), and the concatenated chain [C_F||P]
    has three.  Dense LU tops out near Δ ≈ 100; this module carries the
    same computations to Δ in the thousands by never materializing the
    dense matrix.

    Two layers:
    - the CSR container and its kernels ([mul_vec] / [vec_mul] /
      [transpose]), general rectangular matrices, empty rows allowed;
    - stationary solvers for square stochastic matrices:
      {!stationary_censor} (GTH state reduction — censoring along the
      suffix ladder, subtraction-free and componentwise accurate) with a
      fill budget, and {!stationary_power} (sparse power iteration with
      Aitken-style residual projection) as the fallback. *)

type t
(** Immutable CSR: row pointers, column indices, values.  Within each
    row, columns are strictly increasing (duplicates coalesced at
    construction, explicit zeros dropped). *)

val create : rows:int -> cols:int -> entries:(int * float) list array -> t
(** [create ~rows ~cols ~entries] builds the CSR form of the matrix whose
    row [i] holds [entries.(i)] as [(column, value)] pairs, in any order;
    duplicate columns are summed, zero values dropped.
    @raise Invalid_argument if [Array.length entries <> rows], an index
    is outside [0, cols), or a value is not finite. *)

val of_fn : rows:int -> cols:int -> (int -> (int * float) list) -> t
(** [of_fn ~rows ~cols row] is {!create} with rows produced on demand —
    the band-aware construction path: generators emit transitions row by
    row and no intermediate row array outlives the build. *)

val of_dense : Nakamoto_numerics.Linalg.matrix -> t
(** Drops exact zeros.  @raise Invalid_argument on ragged input. *)

val to_dense : t -> Nakamoto_numerics.Linalg.matrix

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val row : t -> int -> (int * float) list
(** Column-sorted nonzeros of row [i].
    @raise Invalid_argument if [i] is out of range. *)

val transpose : t -> t
(** CSR of the transpose (equivalently, the CSC view) — the pull form a
    gather-based distribution step wants. *)

val mul_vec : t -> float array -> float array
(** [mul_vec a x] is the column vector [A x]: a per-row gather, no
    writes outside the output row.
    @raise Invalid_argument on dimension mismatch. *)

val vec_mul : float array -> t -> float array
(** [vec_mul x a] is the row vector [x A] (a scatter over rows; the
    distribution-pushforward orientation when [a] holds [P] itself).
    @raise Invalid_argument on dimension mismatch. *)

val stationary_censor :
  ?fill_budget:int ->
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  t ->
  float array option
(** [stationary_censor p] computes the stationary distribution of the
    irreducible stochastic matrix [p] by GTH state reduction (censoring):
    states are eliminated from the highest index down, each elimination
    redistributing the censored state's flow onto its predecessors, and
    the distribution is recovered by the standard forward unfolding.  No
    subtractions anywhere, so every entry carries componentwise relative
    accuracy — including stationary masses far below [1e-300]'s
    neighborhood where iterative solvers see only absolute error.

    On ladder-structured chains (transitions climb one rung or restart at
    the base — both paper chains) elimination from the top produces O(1)
    fill per state and the whole solve is O(nnz).  On general chains fill
    can grow; when the live entry count would exceed [fill_budget]
    (default [max 200_000 (64 * rows)]) the solve stops and returns
    [None] — callers fall back to {!stationary_power}.
    @raise Invalid_argument if [p] is not square or a row of a state
    reachable in the elimination order sums to 0 outside itself (the
    chain is reducible). *)

val stationary_power :
  ?tol:float ->
  ?max_iter:int ->
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  t ->
  float array
(** [stationary_power p] iterates [d <- d P] from uniform using the
    transposed CSR (gather form).  Convergence is judged
    by Aitken-style residual projection: the L1 step residual [r_t] and
    its windowed geometric decay ratio [rho] project the remaining
    distance as [r_t * rho / (1 - rho)], so a slowly-mixing chain stops
    as soon as the *projected* error is below [tol] (default [1e-14])
    instead of grinding the raw residual down.
    @raise Failure if [max_iter] (default [1_000_000]) iterations do not
    converge; the message reports steps, [tol], the last residual, the
    projected error and the current spectral-gap estimate [1 - rho].
    @raise Invalid_argument if [p] is not square. *)

(** {1 Telemetry}

    When a registry is passed, both solvers time themselves under the
    [markov_stationary_seconds] span (label [solver="censor"] /
    ["power"]) and the power iteration counts every state it touches into
    the [markov_spmv_states_total] counter — states-per-second is the
    counter over the span sum. *)
