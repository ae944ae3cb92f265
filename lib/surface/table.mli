(** Precomputed, interval-certified assessment surfaces.

    A table holds one {!Cert.cell} per grid cell (certified zone,
    certified confirmation depth, and the margin/threshold/ratio
    enclosures) plus the exact solver's neat margin at every grid
    vertex.  Queries inside the box whose cell is fully conclusive are
    answered from the table — zone and depth certified equal to the
    exact solver's, margin estimated by scale-aware multilinear
    interpolation of the vertex margins (the estimate provably lies in
    the cell's margin enclosure, since every corner value does) — and
    everything else falls back to the exact solver, with telemetry
    counting both paths.

    {2 Binary format (version 1)}

    {v
    "NAKSURF1"  u32le header_len  header_json
    vertices: margin f64le                       (8 bytes each)
    cells:    zone u8, conf_state u8, conf_z u32le,
              margin/neat/attack/ratio lo,hi f64le  (70 bytes each)
    trailer:  u64le SplitMix64 fold of all preceding bytes
    v}

    The header is canonical JSON in the campaign dialect and embeds a
    {!Nakamoto_campaign.Spec.fingerprint}-style hash of the build
    inputs (axes, epsilon, conf_limit, version); [load] verifies both
    hashes.  Cells are serialized in row-major grid order and every
    cell is a pure function of its index, so the bytes are identical
    across runs and [~jobs] values. *)

type t

val default_epsilon : float
(** [1e-3] — the CLI assess default risk target. *)

val default_conf_limit : int
(** [256]: the certified confirmation search gives up (and the cell
    marks its depth inconclusive) well below the exact solver's
    {!Nakamoto_core.Confirmation.default_depth_limit} — the certified
    walk evaluates the double-spend sum at every depth up to z, O(z^2)
    per cell, and a cell needing hundreds of confirmations sits so close to
    the consistency frontier that falling back is the right answer
    anyway. *)

val default_refine : int
(** [2] — see {!Cert.certify}'s [refine]. *)

val build :
  ?jobs:int -> ?epsilon:float -> ?conf_limit:int -> ?refine:int -> Grid.t -> t
(** Certify every cell (in parallel for [jobs > 1] — bit-identical
    results regardless) and record exact vertex margins.
    @raise Invalid_argument for [jobs < 1], [epsilon] outside
    [[Nakamoto_core.Confirmation.min_epsilon, 1)] (the exact search's
    range), [conf_limit < 1] or [refine < 1]. *)

val grid : t -> Grid.t
val epsilon : t -> float
val conf_limit : t -> int
val refine : t -> int

val fingerprint : t -> int64
(** Hash of the build inputs, as embedded in the header. *)

val header_json : t -> string
(** The canonical header object (with fingerprint), exactly as
    serialized — what [surface info --header] prints. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val save : t -> path:string -> unit
val load : string -> (t, string) result

(** {2 Queries} *)

type fallback_reason =
  | Outside_box
  | Zone_boundary  (** the cell's zone enclosure straddles a frontier *)
  | Conf_boundary  (** the certified depth search was inconclusive *)

val fallback_label : fallback_reason -> string
(** ["outside_box"] | ["zone_boundary"] | ["conf_boundary"] — telemetry
    label values and [v_fallback] tags. *)

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
  ?telemetry:Nakamoto_telemetry.Registry.t ->
  t ->
  Nakamoto_core.Params.t ->
  Nakamoto_core.Assessment.verdict
(** The serving entry point: a conclusive lookup becomes a
    [v_cached = true] verdict (counted in [surface_hits_total]);
    anything else runs {!Nakamoto_core.Assessment.assess} and tags the
    verdict with the fallback reason (counted in
    [surface_fallbacks_total{reason=...}]).  Never silently disagrees
    with the exact solver: cached zones and depths are certified equal
    to it over the whole cell. *)

(** {2 Introspection} *)

val cell : t -> int -> Cert.cell
val vertex_margin : t -> int -> float

val conclusive_counts : t -> int * int * int
(** (zone-certified, conf-certified, fully conclusive) cell counts. *)

val describe : t -> string
(** One human line for logs and [surface info]. *)
