(** A generator packaged with its shrinker and printer — what a property
    runs against. *)

type 'a t = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
}

val make : ?shrink:'a Shrink.t -> ?print:('a -> string) -> 'a Gen.t -> 'a t
(** Defaults: no shrinking, ["<opaque>"] printing. *)

val gen : 'a t -> 'a Gen.t
val shrink : 'a t -> 'a Shrink.t
val print : 'a t -> 'a -> string

val int_range : ?shrink_target:int -> lo:int -> hi:int -> unit -> int t
(** Uniform ints, shrinking toward [shrink_target] (default: 0 when in
    range, else [lo]).
    @raise Invalid_argument if the target is outside [[lo, hi]]. *)

val float_range : lo:float -> hi:float -> float t
(** Uniform floats shrinking toward [lo], candidates kept inside the
    range. *)

val log_float_range : lo:float -> hi:float -> float t
(** Log-uniform floats shrinking toward [lo]. *)

val bool : bool t
(** Shrinks toward [false]. *)

val list : min_len:int -> max_len:int -> 'a t -> 'a list t
(** Lengths uniform on [[min_len, max_len]]; shrinking never goes below
    [min_len].  @raise Invalid_argument unless [0 <= min_len <= max_len]. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val map : ?shrink:'b Shrink.t -> ?print:('b -> string) -> ('a -> 'b) -> 'a t -> 'b t
(** Mapped values lose the source shrinker (no inverse is available);
    supply a ['b] shrinker when shrinking matters. *)
