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

let classify a =
  {
    superset_closed = Adversary.is_superset_closed a;
    symmetric = Adversary.is_symmetric a;
    fair = Fairness.is_fair a;
    agreement_power = Setcon.setcon a;
  }

let affine_task_of_adversary a = Ra.of_adversary a

let solvable_in_adversary ?(max_rounds = 2) a task =
  let ra = affine_task_of_adversary a in
  Solver.solvable_by_iteration
    ~task_of_round:(fun r ->
      Affine_task.apply (Affine_task.iterate ra r) task.Task.inputs)
    ~task ~max_rounds

let set_consensus_power = Setcon.setcon
