(** Links and link-connectivity of complexes.

    The link of a simplex σ in a complex [K] is
    [Lk(σ, K) = {τ ∈ K : τ ∩ σ = ∅, τ ∪ σ ∈ K}]. A complex is
    link-connected if the link of every vertex is (graph-)connected.

    Section 8 of the paper observes that link-connectivity is what lets
    Saraph et al. [30] use continuous maps for [R_{t-res}], and that
    "only very special adversaries" have link-connected affine tasks —
    e.g. the task of 1-obstruction-freedom (Figure 7a) is {e not}
    link-connected. Both facts are checked computationally by the test
    suite and the [link] bench section. *)

val link : Simplex.t -> Complex.t -> Complex.t
(** [Lk(σ, K)]. Empty if σ is not a simplex of [K]. Builds the link
    complex: one subset test and one face per facet of [K]. *)

val is_connected : Complex.t -> bool
(** Is the 1-skeleton connected (single component over the complex's
    vertices)? The empty complex counts as connected. Forces the
    closure of the complex ({!Complex.vertices}). *)

val is_link_connected : Complex.t -> bool
(** Are the links of all vertices connected? Equivalent to running
    {!is_connected} on {!link} of every vertex, but computed in one
    star pass over the facets' interned keys: O(F·k) to build the
    vertex → star-facets table (F facets of k vertices), then one
    union-find per vertex over its star, O(Σ|star|·k) in all. It
    builds no simplex or complex, takes no lock and does not force the
    closure. *)

val disconnected_vertices : Complex.t -> Vertex.t list
(** The vertices whose links are disconnected (witnesses for
    non-link-connectivity), in {!Complex.vertices} order. Same pass as
    {!is_link_connected}; only the witnesses are materialized. *)
