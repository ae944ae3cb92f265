(** The property runner: deterministic trials addressed by [(seed, path)].

    Trial [i] of a property draws its input from
    [Rng.of_path ~seed:(property_seed seed name) [i]] — the same audited
    derivation the campaign engine uses — so a reported failure replays
    bit-identically from the printed pair alone, on any machine and in
    any test order.  The property name is folded into the stream seed so
    concurrent properties at one base seed stay decorrelated; replay
    needs only the base seed and the path.

    Environment overrides (all optional):
    - [PROPTEST_SEED]: base seed for every property (decimal or 0x hex).
    - [PROPTEST_TRIALS]: trial count for every property — the soak tier
      sets this large.
    - [PROPTEST_REPLAY]: a comma-separated path; each property runs
      exactly that one trial.  A failure prints the line that replays it
      through the binary that ran it, e.g.
      {v
      PROPTEST_SEED=42 PROPTEST_REPLAY=17 dune exec test/test_main.exe -- test
      v}
      Append a group name after [test] to run only that group. *)

type failure = {
  name : string;
  seed : int64;  (** the base seed to put in [PROPTEST_SEED] *)
  path : int list;  (** the trial path to put in [PROPTEST_REPLAY] *)
  trials_run : int;
  shrink_steps : int;
  original_input : string;
  shrunk_input : string;
  error : string;  (** the (shrunk) property's exception rendering *)
}

exception Failed of failure
(** Raised by {!check}; rendered by {!failure_message} (also registered
    with [Printexc], so uncaught failures print the replay line). *)

val failure_message : failure -> string
(** Multi-line report: inputs before and after shrinking, the error, and
    the copy-pasteable replay one-liner.  The one-liner names the running
    binary ([Sys.executable_name]); one built by dune is named by its
    source-tree path under [dune exec]. *)

val property_seed : seed:int64 -> name:string -> int64
(** The per-property stream seed: the base seed with the property name
    folded in.  Trial [path] of property [name] draws its input from
    [Rng.of_path ~seed:(property_seed ~seed ~name) path] — exposed so
    external tooling (and the engine's own self-tests) can reproduce a
    generated input without going through {!check}. *)

val check :
  ?count:int -> ?seed:int64 -> name:string -> 'a Arbitrary.t ->
  ('a -> unit) -> unit
(** [check ~name arb prop] runs [prop] on [count] (default 100) generated
    inputs from the base [seed] (default 42); a property fails by raising
    any exception.  On failure the
    input is greedily shrunk (bounded at 1000 extra property executions)
    and {!Failed} is raised.
    @raise Invalid_argument if [count <= 0] or an override variable is
    malformed. *)

val soak_active : unit -> bool
(** Whether [PROPTEST_TRIALS] is set — lets suites scale inner sizes
    (not just trial counts) in the soak tier. *)
