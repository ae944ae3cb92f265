(** The (p, n, Δ, ν) parameter box and its rectangular grid.

    Axis order is fixed — p, n, delta, nu — and indices are row-major in
    that order (p slowest, nu fastest): every vertex and cell has one
    canonical position in a table.

    Vertex coordinates pin the axis endpoints {e exactly} ([vertex a 0 =
    lo], [vertex a (count-1) = hi]); interior vertices are linearly or
    log-linearly spaced.  A cell [j] on an axis spans
    [[vertex j, vertex (j+1)]]. *)

type scale = Linear | Log

type axis = private {
  a_lo : float;
  a_hi : float;
  a_count : int;  (** vertices, >= 2; cells = count - 1 *)
  a_scale : scale;
}

val axis : lo:float -> hi:float -> count:int -> scale:scale -> axis
(** @raise Invalid_argument unless [lo < hi] are finite, [count >= 2],
    and [lo > 0.] for log scale. *)

val vertex : axis -> int -> float
val cells : axis -> int

val locate : axis -> float -> int option
(** Cell index [j] with [vertex j <= x <= vertex (j+1)], or [None]
    outside [[lo, hi]]. *)

val weight : axis -> int -> float -> float
(** Interpolation weight of [x] within cell [j], in [[0, 1]] —
    scale-aware (log axes interpolate in log space). *)

val dims : int
(** 4 *)

type t = private { axes : axis array }

val create : p:axis -> n:axis -> delta:axis -> nu:axis -> t
(** @raise Invalid_argument unless the box sits strictly inside the
    {!Nakamoto_core.Params.create} domain: p in (0,1), n >= 4,
    delta >= 1, nu in (0, 1/2).  [nu = 0.] is excluded on purpose —
    the zero-adversary degenerate case takes the exact path. *)

val axes : t -> axis array
val p_axis : t -> axis
val n_axis : t -> axis
val delta_axis : t -> axis
val nu_axis : t -> axis

val vertex_count : t -> int
val cell_count : t -> int
val vertex_counts : t -> int array
val cell_counts : t -> int array

val vertex_id : t -> int array -> int
val vertex_of_id : t -> int -> int array
val cell_id : t -> int array -> int
val cell_of_id : t -> int -> int array

val vertex_coords : t -> int array -> float array
(** Per-axis coordinates [[| p; n; delta; nu |]] of a vertex index. *)

val locate_point :
  t -> p:float -> n:float -> delta:float -> nu:float -> int array option
(** Cell multi-index containing the point, or [None] outside the box. *)
