(** Chromatic simplices: sets of vertices with pairwise distinct
    colors, kept sorted by {!Vertex.compare}.

    The empty simplex is allowed as a value (it is convenient for
    carriers and restrictions) but complexes store only nonempty
    simplices.

    Internally a simplex carries interned metadata computed once at
    construction — the sorted array of vertex intern ids, the color
    bitmask and the base carrier — so [compare], [subset], [mem],
    [colors] and [base_carrier] are O(1)–O(k) integer operations
    instead of deep structural traversals. Simplices are immutable and
    safe to share across domains. *)

type t

val make : Vertex.t list -> t
(** Sorts and validates. Raises [Invalid_argument] if two vertices
    share a color or a vertex is duplicated. *)

val empty : t
val of_vertex : Vertex.t -> t

val of_chr_pairs : (int * t) list -> t
(** [of_chr_pairs [(p1, σ1); …]] builds the simplex of derived vertices
    [(p_i, σ_i)] — the facet-of-run shape of [Chr]. Equivalent to
    [make (List.map (fun (p, σ) -> Vertex.deriv p (vertices σ)) …)] but
    avoids deep re-interning and deep sorting: carriers are passed as
    already-built simplices. Raises [Invalid_argument] as {!make} /
    {!Vertex.deriv} on duplicate colors or a carrier missing its own
    color. *)

val vertices : t -> Vertex.t list
(** Vertices sorted by {!Vertex.compare}. *)

val colors : t -> Pset.t
(** χ(σ): the set of process ids of the vertices. O(1) (cached). *)

val dim : t -> int
(** Dimension: |σ| − 1 (so −1 for the empty simplex). *)

val card : t -> int
val is_empty : t -> bool
val mem : Vertex.t -> t -> bool
val find_color : int -> t -> Vertex.t option
(** The vertex of the given color, if any. *)

val subset : t -> t -> bool
(** Face relation: [subset a b] iff every vertex of [a] is in [b].
    A color-bitmask prefilter followed by a merge-walk over the sorted
    id arrays. *)

val restrict : t -> Pset.t -> t
(** Sub-simplex of the vertices whose color lies in the given set. *)

val restrict_base : t -> Pset.t -> t
(** Sub-simplex of the vertices whose base carrier
    ({!Vertex.base_carrier}) lies in the given set. Reads the base
    carrier stored per vertex at construction: O(k), no lock. *)

val union : t -> t -> t
(** Union as vertex sets. Raises [Invalid_argument] if two distinct
    vertices share a color. *)

val diff : t -> t -> t
val inter : t -> t -> t

val faces : t -> t list
(** All nonempty faces of the simplex ([2^|σ| − 1] of them). Memoized
    per simplex. *)

val proper_faces : t -> t list
(** All nonempty faces except the simplex itself. *)

val subsimplices : t -> t list
(** All faces including the empty one (first). *)

val interned_key : t -> int array
(** The sorted interned-id key — the canonical set representation.
    The physical array; callers must not mutate it. *)

val select_sorted_mask : t -> int -> t
(** [select_sorted_mask t m]: the face selected by bitmask [m] over
    key positions — bit [b] keeps the vertex holding the b-th smallest
    vid of [t]. The materialization step of the arena kernel; O(k),
    no sorting. *)

val fold_distinct_faces :
  seen:Face_set.t ->
  ?min_card:int ->
  ?max_card:int ->
  t ->
  init:'a ->
  f:('a -> card:int -> face:(unit -> t) -> 'a) ->
  'a
(** Streaming face enumeration: folds [f] over every nonempty face of
    the simplex with [min_card ≤ card ≤ max_card] (defaults: all)
    whose interned-id key is not yet in [seen], adding each emitted
    key to [seen]. Passing the same [seen] set across the facets of a
    complex therefore enumerates each face of the complex exactly
    once, with no intermediate face lists; [face] is lazy, so pure
    counting never constructs a simplex. Enumeration order within and
    across simplices is unspecified. *)

val carrier : t -> t
(** For a simplex of [Chr K], its carrier in [K]: the union of the
    carriers of its vertices (by containment, the largest one). For a
    simplex of a base complex, the simplex itself. Memoized per
    simplex. *)

val vertex_carrier : Vertex.t -> t
(** The carrier of a single vertex as a simplex, memoized per vertex
    intern id: for [Deriv (p, σ)] this is σ, built once and shared. *)

val base_carrier : t -> Pset.t
(** [χ(carrier(σ, s))]: processes of the base complex seen by the
    simplex through all subdivision levels. O(1) (cached). *)

val base_simplex : t -> t
(** The carrier of the simplex in the base (input) complex, as a
    simplex of base vertices — i.e. the input assignments ultimately
    seen through all subdivision levels. *)

val compare : t -> t -> int
(** A total order: primary key is the deterministic structural hash,
    with a structural fallback on collisions. Independent of intern
    order, so set iteration is reproducible across runs and domain
    counts — but note it is {e not} the lexicographic vertex order of
    the original list representation. *)

val equal : t -> t -> bool

val hash : t -> int
(** The structural hash (non-negative), consistent with {!equal} —
    usable as a [Hashtbl.HashedType] together with it. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
