(** Ordered set partitions of a process set.

    An ordered partition [(B1, …, Bm)] of a set [P] of processes is the
    combinatorial description of an {e immediate snapshot (IS) run}: the
    processes of block [Bj] take their WriteSnapshot concurrently, after
    the blocks [B1, …, B(j-1)]. The view (snapshot) of a process in
    block [Bj] is [B1 ∪ … ∪ Bj].

    Facets of the standard chromatic subdivision [Chr s] are in
    one-to-one correspondence with ordered partitions of the full
    process set (see {!Chr}), so this module underlies the whole
    subdivision machinery. *)

type t = private Pset.t list
(** Blocks in execution order; all blocks nonempty and pairwise
    disjoint. *)

val make : Pset.t list -> t
(** Validates blocks: nonempty, pairwise disjoint. Raises
    [Invalid_argument] otherwise. *)

val blocks : t -> Pset.t list
val support : t -> Pset.t
(** Union of all blocks (the participating set of the run). *)

val view : t -> int -> Pset.t
(** [view part p] is the IS view of process [p] in the run: the union
    of blocks up to and including the one containing [p]. Raises
    [Not_found] if [p] is not in the support. *)

val views : t -> (int * Pset.t) list
(** The view of every process in the support, sorted by process id. *)

val enumerate : Pset.t -> t list
(** All ordered set partitions of the given set. The empty set yields
    the single empty partition. [List.length (enumerate (Pset.full n))]
    is the n-th Fubini (ordered Bell) number: 1, 1, 3, 13, 75, 541, … *)

val random : Random.State.t -> Pset.t -> t
(** A random ordered partition of the set: random process order with
    independent block cuts. Covers all partitions but is not the
    uniform distribution; meant for property tests and scaling
    experiments at sizes where {!enumerate} is infeasible. *)

val fubini : int -> int
(** [fubini n] is the number of ordered set partitions of an n-element
    set, by the recurrence [a(n) = Σ_k C(n,k)·a(n−k)] (no enumeration).
    Raises a typed [Precondition] {!Fact_resilience.Fact_error} if
    [n < 0] or the value exceeds [max_int] ([n > 18]). *)

val is_valid_views : (int * Pset.t) list -> bool
(** Checks the three IS properties (self-inclusion, containment,
    immediacy) of a set of (process, view) pairs — Section 2 of the
    paper. *)

val of_views : (int * Pset.t) list -> t option
(** Reconstructs the ordered partition from a full set of IS views if
    they are valid and complete (every process in some view has a
    view), [None] otherwise. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{p1},{p0,p2}]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
