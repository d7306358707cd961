(** α-adaptive set consensus objects (Section 3, Definition 4,
    after [24]).

    The abstraction has a single [propose(v)] operation ensuring:
    termination (every correct invoker returns — in the α-model),
    validity (returned values were proposed), and α-agreement: at any
    point, the number of distinct returned values is at most [α(P)]
    where [P] is the current participating set.

    The paper imports from [24] that the A-model, the α-model and the
    α-set-consensus model (read-write memory + these objects) solve the
    same tasks. This module provides the object as a linearizable
    oracle for the {!Exec} runtime, closing that loop operationally:
    protocols written against Definition 4 run under our schedules.

    The oracle is {e adversarial}: it returns the proposer's own value
    whenever α-agreement permits (maximizing disagreement), so bounds
    verified against it are tight. An invocation blocks (spins) while
    [α(P) = 0] or while returning would exceed the budget and no value
    has been returned yet — situations the α-model excludes. *)

open Fact_topology
open Fact_adversary

type t

val create : Agreement.t -> t

val propose : t -> pid:int -> value:int -> int Proc.t
(** To be run under {!Exec.run}: registering participation and each
    attempt are atomic steps on the object (unlabeled operations, see
    {!Memory.modify}). One-shot per process. *)

val participation : t -> Pset.t
(** Processes that have invoked [propose] so far. *)

val returned_values : t -> int list
(** Distinct values returned so far, in first-return order. *)
