(** In-memory, interval-certified assessment surfaces.

    A table holds one {!Cert.cell} per grid cell (certified zone,
    certified confirmation depth, and the margin/threshold/ratio
    enclosures) plus the exact solver's neat margin at every grid
    vertex.  Queries inside the box whose cell is fully conclusive are
    answered from the table — zone and depth certified equal to the
    exact solver's, margin estimated by scale-aware multilinear
    interpolation of the vertex margins (the estimate provably lies in
    the cell's margin enclosure, since every corner value does) — and
    everything else falls back to the exact solver with a [v_fallback]
    tag.  Every cell is a pure function of its index, so a rebuild of
    the same grid gives the same table. *)

type t

val build : ?epsilon:float -> ?conf_limit:int -> ?refine:int -> Grid.t -> t
(** Certify every cell and record exact vertex margins.  [epsilon]
    (default [1e-3], the CLI assess default) is the double-spend risk
    target of the certified depths.  [conf_limit] (default [256]) is
    the depth past which the certified search gives up and marks the
    cell's depth inconclusive — far below the exact solver's
    {!Nakamoto_core.Confirmation.default_depth_limit}, because the
    certified walk evaluates the double-spend sum at every depth up to
    z, O(z^2) per cell, and a cell needing hundreds of confirmations
    sits so close to the consistency frontier that falling back is the
    right answer anyway.  [refine] (default [2]) is {!Cert.certify}'s.
    @raise Invalid_argument for [epsilon] outside
    [[Nakamoto_core.Confirmation.min_epsilon, 1)] (the exact search's
    range), [conf_limit < 1] or [refine < 1]. *)

val grid : t -> Grid.t
val epsilon : t -> float

(** {2 Queries} *)

type fallback_reason =
  | Outside_box
  | Zone_boundary  (** the cell's zone enclosure straddles a frontier *)
  | Conf_boundary  (** the certified depth search was inconclusive *)

type hit = {
  h_cell : Cert.cell;
  h_margin : float;  (** interpolated margin estimate *)
}

val lookup :
  t -> p:float -> n:float -> delta:float -> nu:float ->
  (hit, fallback_reason) result
(** The raw table query: [Ok] only for in-box points whose cell is
    fully conclusive (zone {e and} confirmation depth). *)

val assess_cached :
  t -> Nakamoto_core.Params.t -> Nakamoto_core.Assessment.verdict
(** A conclusive lookup becomes a [v_cached = true] verdict; anything
    else runs {!Nakamoto_core.Assessment.assess} and tags the verdict's
    [v_fallback] with ["outside_box"], ["zone_boundary"] or
    ["conf_boundary"].  Never silently disagrees with the exact solver:
    cached zones and depths are certified equal to it over the whole
    cell. *)

(** {2 Introspection} *)

val cell : t -> int -> Cert.cell

val conclusive_counts : t -> int * int * int
(** (zone-certified, conf-certified, fully conclusive) cell counts. *)
