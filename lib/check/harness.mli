(** Ready-made explorations of the paper's protocols.

    These glue {!Explore} to the runtime protocols and to the
    topological oracles of the paper, all phrased as {!Assertion}
    suites over {!Subject}s:

    - {!explore_immediate_snapshot} enumerates the interleavings of a
      single one-shot immediate snapshot and reconstructs the ordered
      set partition ({!Fact_topology.Opart}) of every completed run —
      the combinatorial side of the [Chr s] ↔ IS-runs correspondence,
      so exhaustive exploration of [n] processes must produce exactly
      the [fubini n] partitions. Its oracle is the built-in assertion
      [All [Named "is-valid-views"; Eventually_decides None]].
    - {!explore_algorithm1} model-checks Theorem 7: under every
      explored interleaving (with crash injection up to the α-model
      bound [α(P) − 1]), the decided outputs of Algorithm 1 form a
      simplex of [R_A] ([All [Named "in-ra"; Eventually_decides None]]).
      The [skip_wait] ablation (and the other {!Algorithm1.mutation}s)
      hand the explorer genuinely broken protocols to find
      counterexamples in.
    - {!explore_snapmin} explores the write–snapshot–decide-min
      protocol ({!Snapmin}, protocol name ["wsmin"]) against
      set-consensus validity/agreement/termination schemas. With
      [Agreement 1] it exhibits the classic consensus counterexample.

    Each assertion suite is boolean-equivalent, run by run, to the
    hand-written oracle it replaced, and the default assertions read
    no events (their subjects observe no process), so exploration
    counts are bit-identical to the historical engine. *)

open Fact_topology
open Fact_adversary
open Fact_runtime

val is_procs : n:int -> unit -> (int -> (int * int) list Proc.t) array
(** Fresh process closures over a fresh one-shot IS for [n] processes:
    process [i] write-snapshots its own id and returns its view. *)

val views_of_report : (int * int) list Exec.report -> (int * Pset.t) list
(** The decided views of an IS run, as (pid, set-of-writers) pairs. *)

(** {1 Subjects and assertion environments} *)

type is_mutation = Split_snapshot
    (** Replace the immediate write-snapshot by a plain write followed
        by a separate snapshot: containment still holds but immediacy
        breaks for [n ≥ 3]. *)

val is_default_assertion : Assertion.t
(** [All [Named "is-valid-views"; Eventually_decides None]]. *)

val is_subject :
  ?mutation:is_mutation ->
  ?assertion:Assertion.t ->
  n:int ->
  unit ->
  unit -> (int * int) list Subject.t
(** Subject factory for the one-shot IS: each call of the returned
    thunk builds a fresh instance, its assertion environment (object
    ["is"], named assertion ["is-valid-views"]) and verdict. *)

val alg1_prop : ra:Complex.t -> Algorithm1.output Exec.report -> bool
(** Theorem 7 safety: the decided outputs form a simplex of [R_A]
    (vacuously true when nothing decided). *)

val alg1_default_assertion : Assertion.t
(** [All [Named "in-ra"; Eventually_decides None]]. *)

val alg1_object_names : string list
(** The five shared objects of Algorithm 1, for frame assertions:
    ["is1"; "is2"; "reg-is1"; "reg-is2"; "reg-conc"]. *)

val alg1_subject :
  ?skip_wait:bool ->
  ?mutation:Algorithm1.mutation ->
  ?variant:Fact_affine.Ra.variant ->
  ?assertion:Assertion.t ->
  alpha:Agreement.t ->
  participants:Pset.t ->
  unit ->
  unit -> Algorithm1.output Subject.t
(** Subject factory for Algorithm 1. [R_A] is computed once, when the
    factory is built. The environment binds the five
    {!alg1_object_names} and the named assertion ["in-ra"]. *)

type wsmin_mutation = Biased_decision
    (** Decide [min + 1] instead of [min]: with the default even
        proposals the decided value is never proposed, so [Validity]
        catches it on every run. *)

val wsmin_default_proposals : int -> int array
(** [2 * pid] for each process — all even and distinct. *)

val wsmin_default_assertion : k:int -> Assertion.t
(** [All [Validity; Agreement k; Eventually_decides None]]. *)

val wsmin_subject :
  ?mutation:wsmin_mutation ->
  ?proposals:int array ->
  ?k:int ->
  ?assertion:Assertion.t ->
  n:int ->
  unit ->
  unit -> int Subject.t
(** Subject factory for {!Snapmin}. [k] (default [n]) picks the
    agreement bound of the default assertion. The environment binds
    object ["mem"], [decisions_of = Exec.decided] and the proposal
    map, so the [Agreement]/[Validity] schemas apply. *)

(** {1 Built-in assertion registry} *)

type builtin = {
  b_protocol : string;  (** ["is"], ["alg1"] or ["wsmin"] *)
  b_name : string;
  b_doc : string;
  b_assertion : n:int -> Assertion.t;
}

val builtins : builtin list
(** Every built-in assertion, for [fact assert list]. *)

val builtin : protocol:string -> string -> builtin option
(** Look up a built-in by protocol and name. *)

(** {1 Ready-made explorations} *)

val explore_immediate_snapshot :
  ?max_depth:int ->
  ?max_runs:int ->
  ?mutation:is_mutation ->
  ?assertion:Assertion.t ->
  ?stop_on_violation:bool ->
  ?resume:Checkpoint.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  ?domains:int ->
  n:int ->
  unit ->
  (int * int) list Explore.stats * Opart.t list
(** Explore all interleavings (failure-free, full participation) of a
    one-shot IS. The property checked on every run is
    {!is_default_assertion} unless [assertion] overrides it. Also
    returns the distinct ordered partitions of the completed runs,
    sorted.

    [resume]/[checkpoint_every]/[on_checkpoint]/[domains] thread
    through to {!Explore.explore}, with the observed partitions
    carried in the {!Checkpoint.t} ([protocol = "is"]). Partitions are
    the explorer's run classes, kept per subtree task, so they come
    from exactly the committed runs at any domain count and budget.
    Resuming from a checkpoint of another protocol or universe raises
    a [Precondition] {!Fact_resilience.Fact_error}. *)

val explore_algorithm1 :
  ?skip_wait:bool ->
  ?mutation:Algorithm1.mutation ->
  ?variant:Fact_affine.Ra.variant ->
  ?assertion:Assertion.t ->
  ?max_crashes:int ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?stop_on_violation:bool ->
  ?resume:Checkpoint.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  ?domains:int ->
  alpha:Agreement.t ->
  participants:Pset.t ->
  unit ->
  Algorithm1.output Explore.stats
(** Model-check Algorithm 1 for [alpha] with the given participation.
    Defaults: [max_crashes] is the α-model bound
    [α(participants) − 1] (0 if [α = 0]), all participants crashable,
    [max_depth = 64], [max_runs = 100_000]. The checked property is
    {!alg1_default_assertion} over [Ra.complex ?variant alpha] unless
    [assertion] overrides it.

    [resume]/[checkpoint_every]/[on_checkpoint] behave as in
    {!explore_immediate_snapshot} ([protocol = "alg1"]). *)

val explore_snapmin :
  ?mutation:wsmin_mutation ->
  ?proposals:int array ->
  ?k:int ->
  ?assertion:Assertion.t ->
  ?max_depth:int ->
  ?max_runs:int ->
  ?stop_on_violation:bool ->
  ?resume:Checkpoint.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  ?domains:int ->
  n:int ->
  unit ->
  int Explore.stats
(** Explore the write–snapshot–decide-min protocol, failure-free with
    full participation ([protocol = "wsmin"]). The default property is
    {!wsmin_default_assertion} with [k = n] (always satisfied); with
    [assertion = Agreement 1] the explorer finds the standard
    split-brain consensus counterexample. *)
