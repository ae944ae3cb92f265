(** Interval certification of one grid cell.

    The certifier replays the exact solver's float expressions —
    {!Nakamoto_core.Params.c}, {!Nakamoto_core.Bounds.neat_c_min}, the
    PSS attack threshold and the Eq. 44 rate ratio — with the {e same}
    operation trees over outward-rounded intervals spanning the cell's
    parameter box, and encloses Nakamoto's double-spend risk in a
    padded positive form ({!double_spend_iv}).  Since round-to-nearest
    keeps every primitive within one ulp of its true value and every
    interval op widens one ulp outward, each enclosure provably
    contains the float the exact solver computes at {e every}
    point of the cell.  A verdict read off disjoint enclosures therefore
    equals the exact solver's verdict throughout the cell; overlapping
    enclosures mean the cell straddles a frontier and the answer is
    [*_inconclusive] — the caller must fall back to the exact solver. *)

module I = Nakamoto_numerics.Interval

type zone_cert =
  | Zone of Nakamoto_core.Assessment.zone
      (** the exact solver returns this zone everywhere in the cell *)
  | Zone_inconclusive

type conf_cert =
  | Conf of int
      (** the exact confirmation search returns this depth everywhere *)
  | Conf_none
      (** rate ratio certified >= 1 everywhere: the exact solver reports
          outside-consistency (confirmations [None]) *)
  | Conf_inconclusive

type cell = {
  zone : zone_cert;
  conf : conf_cert;
  margin : I.t;  (** encloses [c - neat_threshold] over the cell *)
  neat : I.t;
  attack : I.t;
  ratio : I.t;
      (** encloses the exact rate ratio; the trivial [[0, inf]] when the
          mirrored expression was unrepresentable *)
}

val c_iv : p:I.t -> n:I.t -> delta:I.t -> I.t
val neat_iv : nu:I.t -> I.t
val attack_iv : nu:I.t -> I.t
val ratio_iv : p:I.t -> n:I.t -> delta:I.t -> nu:I.t -> I.t

val double_spend_iv : ratio:I.t -> confirmations:int -> I.t
(** Encloses {!Nakamoto_core.Confirmation.nakamoto_double_spend} for a
    ratio interval strictly inside (0, 1).  Not a literal mirror: it
    evaluates the same positive form as the exact solver, but term by
    term (survival sum plus a geometrically-dominated Poisson tail),
    and pads outward by a bound on the exact solver's float error — see
    the implementation comment for the containment argument. *)

val certify :
  refine:int ->
  epsilon:float ->
  conf_limit:int ->
  p:I.t ->
  n:I.t ->
  delta:I.t ->
  nu:I.t ->
  cell
(** Certify one cell box.  Never raises on boxes inside the
    {!Nakamoto_core.Params.create} domain: unrepresentable enclosures
    (widened denominators straddling zero near [nu = 1/2], rate searches
    past [conf_limit]) degrade to the inconclusive verdicts.

    [refine] covers the cell with [refine^4] sub-boxes for
    the confirmation pass and accepts only a unanimous depth verdict —
    a sound counter to the dependency blow-up in the ratio quotient
    (p and n appear on both sides of the division, which the interval
    arithmetic cannot see), at [refine^4] ratio evaluations per cell.
    [refine = 1] is the plain single-enclosure certification.
    @raise Invalid_argument if [refine < 1]. *)
