(** Shrinking: lazy streams of strictly "smaller" candidate values.

    A shrinker maps a failing value to candidates to try in order; the
    runner's greedy loop keeps the first candidate that still fails and
    restarts from it, so streams should emit the most aggressive
    reductions first (all shrinkers here do).  Termination is guaranteed
    by the runner's step budget, not by the shrinker. *)

type 'a t = 'a -> 'a Seq.t

val nothing : 'a t
(** No candidates — for opaque or already-minimal values. *)

val int : ?target:int -> int t
(** Halve the distance to [target] (default 0), most aggressive first. *)

val float : ?target:float -> float t
(** A few waypoints toward [target] (default 0.). *)

val list : 'a t -> 'a list t
(** Drop progressively smaller chunks, then shrink elements in place. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
(** Shrink each component while holding the other. *)
