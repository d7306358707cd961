(** FACT — the Fair Asynchronous Computability Theorem, executable.

    Umbrella API over the six sub-libraries. Re-exports the module
    hierarchy and offers the theorem-level entry points:

    - {!affine_task_of_adversary}: the affine task [R_A] capturing a
      fair adversary (Definition 9);
    - {!solvable_in_adversary}: decide task solvability in a fair
      adversarial model by searching for a simplicial map from
      iterations of [R_A] (Theorem 16), with a bounded number of
      iterations;
    - {!classify}: where an adversary sits in Figure 2
      (superset-closed / symmetric / fair), together with its
      agreement power. *)

module Pset = Fact_topology.Pset
module Opart = Fact_topology.Opart
module Vertex = Fact_topology.Vertex
module Simplex = Fact_topology.Simplex
module Complex = Fact_topology.Complex
module Chr = Fact_topology.Chr
module Sperner = Fact_topology.Sperner
module Link = Fact_topology.Link
module Geometry = Fact_topology.Geometry
module Parallel = Fact_topology.Parallel
module Adversary = Fact_adversary.Adversary
module Hitting = Fact_adversary.Hitting
module Setcon = Fact_adversary.Setcon
module Agreement = Fact_adversary.Agreement
module Fairness = Fact_adversary.Fairness
module Census = Fact_adversary.Census
module Views = Fact_affine.Views
module Contention = Fact_affine.Contention
module Critical = Fact_affine.Critical
module Concurrency = Fact_affine.Concurrency
module Affine_task = Fact_affine.Affine_task
module Ra = Fact_affine.Ra
module Rkof = Fact_affine.Rkof
module Rtres = Fact_affine.Rtres
module Mu = Fact_affine.Mu
module Task = Fact_tasks.Task
module Set_consensus = Fact_tasks.Set_consensus
module Simplex_agreement = Fact_tasks.Simplex_agreement
module Solver = Fact_tasks.Solver
module Approximate_agreement = Fact_tasks.Approximate_agreement
module Mu_map = Fact_tasks.Mu_map
module Op = Fact_runtime.Op
module Schedule = Fact_runtime.Schedule
module Exec = Fact_runtime.Exec
module Memory = Fact_runtime.Memory
module Immediate_snapshot = Fact_runtime.Immediate_snapshot
module Iis = Fact_runtime.Iis
module Algorithm1 = Fact_runtime.Algorithm1
module Snapmin = Fact_runtime.Snapmin
module Affine_runner = Fact_runtime.Affine_runner
module Adaptive_consensus = Fact_runtime.Adaptive_consensus
module Simulation = Fact_runtime.Simulation
module Alpha_sc = Fact_runtime.Alpha_sc
module Fact_error = Fact_resilience.Fact_error
module Cancel = Fact_resilience.Cancel
module Cache = Fact_resilience.Cache
module Trace = Fact_check.Trace
module Replay = Fact_check.Replay
module Explore = Fact_check.Explore
module Minimize = Fact_check.Minimize
module Gen = Fact_check.Gen
module Shrink = Fact_check.Shrink
module Prop = Fact_check.Prop
module Subject = Fact_check.Subject
module Assertion = Fact_check.Assertion
module Mutant = Fact_check.Mutant
module Harness = Fact_check.Harness
module Checkpoint = Fact_check.Checkpoint
module Chaos = Fact_check.Chaos
module Sexp = Fact_sexp.Sexp
module Query = Fact_serve.Query
module Wire = Fact_serve.Wire
module Store = Fact_serve.Store
module Scheduler = Fact_serve.Scheduler
module Listener = Fact_serve.Listener
module Client = Fact_serve.Client
module Serve_chaos = Fact_serve.Serve_chaos
module Serve_digest = Fact_serve.Digest
module Backoff = Fact_resilience.Backoff
module Histogram = Fact_serve.Histogram
module Grid = Fact_campaign.Grid
module Campaign_results = Fact_campaign.Results
module Campaign_runner = Fact_campaign.Runner
module Report = Fact_campaign.Report
module Bench_entries = Fact_campaign.Bench_entries

type classification = {
  superset_closed : bool;
  symmetric : bool;
  fair : bool;
  agreement_power : int;
}

val classify : Adversary.t -> classification
(** Structural classification of an adversary (the regions of
    Figure 2) plus its agreement power [setcon]. *)

val affine_task_of_adversary : Adversary.t -> Affine_task.t
(** [R_A] (Definition 9, default variant). The characterization
    theorems apply when the adversary is fair. *)

val solvable_in_adversary :
  ?max_rounds:int -> Adversary.t -> Task.t -> int option
(** [solvable_in_adversary a t]: the smallest number [ℓ ≤ max_rounds]
    (default 2) of [R_A] iterations from which a simplicial map to the
    task's outputs exists — [Some ℓ] certifies solvability in the
    A-model (Theorem 16); [None] means no map exists within the bound
    (for the canonical set-consensus family this settles the question,
    as solvability there needs only one iteration). *)

val set_consensus_power : Adversary.t -> int
(** The smallest [k] such that k-set consensus is solvable — computed
    from the adversary's structure ([setcon], Definition 1). Theorems
    15/16 equate it with solvability in [R_A*]; the test suite verifies
    the equation through {!solvable_in_adversary}. *)
