(** Vertices of (iterated) chromatic complexes.

    A single recursive type represents vertices of the standard simplex
    [s], of input complexes, and of any iterated standard chromatic
    subdivision [Chr^m]:

    - [Input {proc; value}] is a vertex of a base (input) complex:
      process [proc] with input [value]. The standard simplex [s] is
      the input complex where every process has value [0].
    - [Deriv {proc; carrier}] is a vertex of [Chr K]: the pair
      [(proc, σ)] of the paper, where [σ] (the [carrier]) is the
      simplex of [K] "seen" by [proc] — the snapshot it obtained in the
      corresponding immediate-snapshot run.

    Simplices are sorted vertex lists (see {!Simplex}); the [carrier]
    field stores such a sorted list. *)

type t =
  | Input of { proc : int; value : int }
  | Deriv of { proc : int; carrier : t list }

val proc : t -> int
(** The color χ(v) of the vertex: the process id. *)

val input : int -> int -> t
(** [input p v] is the base vertex of process [p] with value [v]. *)

val base : int -> t
(** [base p] = [input p 0]: a vertex of the standard simplex [s]. *)

val deriv : int -> t list -> t
(** [deriv p carrier] builds a [Chr]-vertex. The carrier must be a
    sorted simplex (as produced by {!Simplex.make}) containing a vertex
    of color [p]; raises [Invalid_argument] otherwise. *)

val carrier : t -> t list
(** The carrier of a [Deriv] vertex in the complex it subdivides, i.e.
    the simplex it has seen. For an [Input] vertex, its own singleton. *)

val base_carrier : t -> Pset.t
(** [carrier(v, s)]: the set of processes of the base complex
    ultimately seen by this vertex, flattening all subdivision
    levels. *)

val level : t -> int
(** Subdivision depth: 0 for [Input], 1 + level of carrier vertices for
    [Deriv]. *)

val value : t -> int
(** The base input value of the vertex's own process: for [Input] it is
    the stored value; for [Deriv] it is the value of the same process
    at the base level (full-information: a process always knows its own
    input). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** {2 Interning}

    Vertices are interned into a global table that assigns dense
    integer ids: structurally equal vertices always receive the same
    id, so equality of interned vertices is integer equality. The
    table also memoizes, per id, a full-depth structural hash and the
    base carrier. Interning is guarded by a mutex and is safe to call
    from multiple domains; ids are process-local (their numbering
    depends on intern order), so they must only be used for equality,
    hashing and memo keys — ordering of observable results must use
    the structural hash (see {!intern_list}) or structural {!compare},
    which are deterministic. *)

val id : t -> int
(** The dense intern id of the vertex (interning it if needed). *)

val intern_list : t list -> (int * int * Pset.t) list
(** [(id, hash, base_carrier)] for each vertex, taking the intern lock
    once for the whole batch. [hash] is a full-depth structural hash,
    memoized per id; it depends only on the structure of the vertex,
    never on intern order. Used by {!Simplex.make}. *)

val intern_deriv_list : (int * int list) list -> (int * int * Pset.t) list
(** Shallow batch interning of derived vertices: each entry is
    [(proc, carrier_ids)] where the carrier vertices are already
    interned (in carrier order). Agrees with {!intern_list} on ids,
    hashes and base carriers, but costs O(carrier) per vertex instead
    of a full tree walk. Used by {!Simplex.of_chr_pairs}. *)
