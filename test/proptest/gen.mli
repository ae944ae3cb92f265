(** Generator combinators: a ['a t] consumes pseudo-randomness and yields
    a value.

    Generators are plain functions of the repo's deterministic {!Rng}, so
    a value is fully determined by the [(seed, path)] pair the runner
    derives the stream from — the property layer's replayability rests on
    that and nothing else.  Generation order matters: combinators
    evaluate left-to-right so a given stream always decodes to the same
    value. *)

type 'a t = Nakamoto_prob.Rng.t -> 'a

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
(** Bind: the second generator draws after the first. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val bool : bool t

val int_range : lo:int -> hi:int -> int t
(** Uniform on the inclusive range.  @raise Invalid_argument if [lo > hi]. *)

val float_range : lo:float -> hi:float -> float t
(** Uniform on [[lo, hi)].  @raise Invalid_argument unless finite
    [lo <= hi]. *)

val log_float_range : lo:float -> hi:float -> float t
(** Log-uniform on [[lo, hi)] — the right prior for scale parameters like
    [c] and [n].  @raise Invalid_argument unless [0 < lo <= hi]. *)

val oneof : 'a t list -> 'a t
(** Uniform choice among generators.  @raise Invalid_argument on []. *)

val oneof_value : 'a list -> 'a t
(** Uniform choice among constants.  @raise Invalid_argument on []. *)

val frequency : (int * 'a t) list -> 'a t
(** Weighted choice.  @raise Invalid_argument unless weights sum > 0. *)

val list : len:int t -> 'a t -> 'a list t
val array : len:int t -> 'a t -> 'a array t
