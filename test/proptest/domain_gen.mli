(** Generators over the paper's valid parameter region.

    Two spec distributions matter: {!exec_spec} ranges over everything an
    executor accepts (including queue-lane features like the balance
    attack and [Uniform_random] delays), while {!oracle_spec} is
    restricted to the differential oracle's common ground.  Both shrink toward the smallest
    idle exact-mode configuration that still fails, and only through
    candidates that remain valid configurations. *)

val params : Nakamoto_core.Params.t Arbitrary.t
(** Analysis-side parameters across the full scales of the paper:
    [n] log-uniform on [4, 1e6], [delta] log-uniform on [1, 1e4],
    [nu] in [0.01, 0.49], [c] log-uniform on [0.3, 60]. *)

val explicit_chain_point : delta_max:int -> (int * Nakamoto_core.Params.t) Arbitrary.t
(** [(delta, params)] pairs suitable for the explicit [C_F]/[C_F||P]
    constructions: integer [delta <= delta_max] (also the params' network
    delay), and [c], [nu] ranges pinning the per-round H probability
    [alpha] into a solver-friendly band.  Shrinks [delta].
    @raise Invalid_argument unless [delta_max] lies in [1, 6]. *)

val exec_spec : Nakamoto_sim.Scenarios.spec Arbitrary.t
(** Any executor scenario: all strategies, all delay policies, both
    tie-breaks, all three mining modes. *)

val oracle_spec : Nakamoto_sim.Scenarios.spec Arbitrary.t
(** Scenarios runnable by Exact, Aggregate, and the state process alike:
    recipient-independent delays, no balance attack.  The spec's
    [mining_mode] is fixed to [Exact]; the oracle overrides it per
    lane. *)
