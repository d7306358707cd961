(** Algorithm 1 of the paper: solving the affine task [R_A] in the
    α-model (Section 5).

    Every process proposes its id to a first immediate snapshot, shares
    the view in register [IS1], then waits until it either belongs to a
    critical simplex ([crit]) or the number of potentially contending
    unfinished processes is below the current concurrency level
    ([rank < conc]); it then runs the second immediate snapshot, posts
    the outcome in [IS2], publishes the new concurrency level in
    [Conc] if it completed a critical simplex, and returns its second
    view.

    Theorem 7: in any α-model run, all correct processes return and
    the outputs form a simplex of [R_A]. Both properties are exercised
    by the test suite under randomized compliant schedules. *)

open Fact_topology
open Fact_adversary

type output = {
  pid : int;
  view1 : Pset.t;                 (** own first IS view *)
  view2 : (int * Pset.t) list;    (** second IS view: (j, IS1[j]) pairs *)
}

type instance

val create_instance : n:int -> instance
(** Fresh shared objects (two IS objects and the three register
    arrays). One instance per run. *)

val objects : instance -> (string * int) list
(** Symbolic names for the instance's shared objects, mapped to the
    {!Op.t} object ids of this instance ([is1], [is2], [reg-is1],
    [reg-is2], [reg-conc]). Object ids are globally monotonic, so
    assertions must resolve names through this map per run. *)

type mutation = Skip_wait | Drop_second_snapshot | Biased_view
(** Seeded faults for mutation-testing the oracle suite:
    - [Skip_wait] removes the wait-phase (lines 6–9), degrading the
      algorithm to a plain 2-round immediate snapshot;
    - [Drop_second_snapshot] skips the second IS round — the process
      reports only its own pair;
    - [Biased_view] drops the lowest-id pair from the second view.
    Each must be caught by at least one built-in assertion. *)

val process :
  ?skip_wait:bool -> ?mutation:mutation -> instance -> Agreement.t ->
  pid:int -> output Proc.t
(** The protocol for one process, to be run under {!Exec.run}.
    [skip_wait] (default [false]) is the historical spelling of
    [~mutation:Skip_wait]: it removes the wait-phase, and outputs then
    escape [R_A] on contended schedules (verified by the test suite
    and the [ablation] bench). *)

val run :
  ?max_steps:int ->
  ?skip_wait:bool ->
  Agreement.t ->
  schedule:Schedule.t ->
  output Exec.report
(** Convenience wrapper: fresh instance, all scheduled processes run
    {!process}. *)

val vertex_of_output : output -> Vertex.t
(** The vertex of [Chr² s] encoded by an output. *)

val simplex_of_outputs : output list -> Simplex.t
(** The simplex formed by a set of outputs (distinct processes). *)
