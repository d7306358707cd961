(** Finite chromatic simplicial complexes, represented by their facets.

    A complex is stored as the set of its maximal simplices (facets)
    over a universe of [n] colors. Membership of an arbitrary simplex
    is "is a face of some facet". This matches the constructions of the
    paper, which are all given by facet sets (ordered partitions,
    filtered facets of [Chr² s], pure complements, closures). *)

type t

val of_facets : n:int -> Simplex.t list -> t
(** Builds a complex from generating simplices, discarding non-maximal
    generators and the empty simplex. *)

val n : t -> int
(** Number of colors of the universe. *)

val facets : t -> Simplex.t list
val facet_count : t -> int
val is_empty : t -> bool

val mem : Simplex.t -> t -> bool
(** Is the simplex a face of some facet? The empty simplex is a member
    of any nonempty complex. *)

val all_simplices : t -> Simplex.t list
(** Every nonempty simplex of the complex (the closure of the facet
    set). Cached after the first call. *)

val fold_faces :
  ?min_card:int ->
  ?max_card:int ->
  t ->
  init:'a ->
  f:('a -> card:int -> face:(unit -> Simplex.t) -> 'a) ->
  'a
(** Streaming closure kernel: folds [f] over every nonempty face of
    the complex with [min_card ≤ card ≤ max_card] (defaults: all),
    each exactly once, without materializing an intermediate complex
    or per-facet face lists. [face] is lazy — forcing it builds (or
    retrieves) the interned simplex; a counting fold that ignores it
    allocates no simplices. Folds over the cached closure instead when
    one is already present. Enumeration order is unspecified. *)

val simplex_count : t -> int
(** Number of nonempty simplices of the complex. Streams via
    {!fold_faces} when the closure is not cached (and does not
    populate the cache); use {!all_simplices} first to force it. *)

val vertices : t -> Vertex.t list
val dimension : t -> int
(** Max facet dimension; −1 for the empty complex. *)

val is_pure : t -> bool
(** All facets have the same dimension. *)

val is_pure_of_dim : int -> t -> bool

val skeleton : int -> t -> t
(** [skeleton k c]: sub-complex of simplices of dimension ≤ k.
    Streams only the dimension-[k] slice of the closure. *)

val star : Simplex.t list -> t -> Simplex.t list
(** [St(S, K)]: all simplices of [K] having a face in [S] (paper
    notation: simplices whose face set intersects [S]). *)

val pure_complement : Simplex.t list -> t -> t
(** [Pc(S, K)]: the maximal pure sub-complex of [K] of the same
    dimension as [K] that does not intersect [S] — the closure of the
    facets of [K] having no face in [S]. [K] must be pure. *)

val restrict_colors : Pset.t -> t -> t
(** Sub-complex of simplices whose base carrier is contained in the
    given color set. For [Chr^ℓ s] and a face σ ⊆ s this is exactly
    [Chr^ℓ(σ)]; for an affine task [L] it computes [∆(σ) = L ∩ Chr^ℓ(σ)].
    Each facet is cut down by {!Simplex.restrict_base} (O(k), the
    per-vertex base carriers stored at construction, no lock or
    re-interning); the cost is that plus {!of_facets} on the cut
    facets. *)

val euler_characteristic : t -> int
(** Σ (−1)^dim over all simplices. 1 for any [Chr^m s] (contractible).
    Streams via {!fold_faces} when the closure is not cached; the
    result is cached either way. *)

val filter_facets : (Simplex.t -> bool) -> t -> t
val union : t -> t -> t
val subcomplex : t -> t -> bool
(** [subcomplex a b]: every facet of [a] is a simplex of [b]. *)

val equal : t -> t -> bool
val pp_stats : Format.formatter -> t -> unit
(** One-line summary: n, facet count, dimension, purity. *)
