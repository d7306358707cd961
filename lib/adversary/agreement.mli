(** Agreement functions and the α-model (Section 3, after [24]).

    An agreement function maps each participation set [P ⊆ Π] to the
    best level of set consensus solvable adaptively with participation
    [P]. The agreement function of an adversary is
    [α(P) = setcon (A|P)]. *)

open Fact_topology

type t
(** An agreement function over a universe of [n] processes, tabulated
    for all [2^n] participation sets. *)

val of_adversary : Adversary.t -> t
val of_fn : n:int -> (Pset.t -> int) -> t
val n : t -> int

val stamp : t -> int
(** An id of the function's table, for use as a memo key downstream:
    two functions with different tables never share a stamp, and two
    equal ones built separately share it unless the bounded intern
    table was reset between them (caches are then merely less shared,
    never wrong). *)

val eval : t -> Pset.t -> int
(** α(P). *)

val equal : t -> t -> bool

val is_monotonic : t -> bool
(** P ⊆ P' ⟹ α(P) ≤ α(P'). Holds for every agreement function of a
    model. *)

val is_bounded_growth : t -> bool
(** α(P') ≤ α(P) + |P' \ P| for P ⊆ P'. *)

val is_regular : t -> bool
(** The fair-adversary inequality used throughout Section 5:
    for all Q ⊆ P, α(P) ≥ α(P \ Q) ≥ α(P) − |Q|. Equivalent to
    monotonic + bounded growth. *)

val k_obstruction_free : n:int -> k:int -> t
(** α(P) = min(|P|, k) — the agreement function of k-concurrency
    (Figures 5a/6a/7a use k = 1). *)

val dominates : t -> t -> bool
(** [dominates f g]: f(P) ≥ g(P) for every P. For {e fair} adversaries,
    agreement functions characterize task computability ([24],
    Theorems 1–2), so pointwise dominance of α_A over α_B means the
    A-model solves every task the B-model does. *)

val equivalent : t -> t -> bool
(** Pointwise equality: same task computability for fair adversaries. *)

val max_faulty : t -> Pset.t -> int option
(** In the α-model with participation [P]: [Some (α(P) − 1)] processes
    may fail if [α(P) ≥ 1]; [None] if [α(P) = 0] (no such run). *)

val pp : Format.formatter -> t -> unit
(** Tabulates α on all participation sets. *)
