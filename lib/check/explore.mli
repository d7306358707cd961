(** Systematic exploration of executor interleavings (bounded model
    checking), as subtree tasks run in order or fanned out over the
    {!Fact_topology.Parallel} domain pool.

    The explorer enumerates schedules of {!Fact_runtime.Exec} by
    depth-first search over scheduling decisions: at every interleaving
    point it can step any alive process or (within a crash budget)
    crash one. Processes are step values ({!Fact_runtime.Proc}), so an
    execution state can be stored and resumed: every node on the DFS
    path keeps the machine state and the event log right before its
    decision ({!Fact_runtime.Exec.save}), and the memory writes since
    are logged in an undo trail. A new execution restores the state of
    the node where it branches off and runs only its fresh suffix; a
    task's forced prefix (a subtree prefix or a resume frontier) is
    executed once, by its first run.

    Two reduction/bounding mechanisms keep the search tractable:

    - {b sleep sets} (Godefroid): after exploring decision [d] at a
      node, [d] is put to sleep for the node's remaining branches and
      stays asleep in descendants until a {e dependent} step fires.
      Independence comes from the pending-operation descriptors
      ({!Fact_runtime.Op}): steps whose next operations commute (e.g.
      writes to different cells, or two snapshots) never both get
      explored in the two orders. Prefixes whose every enabled decision
      is asleep are abandoned — their interleavings are Mazurkiewicz
      -equivalent to already-explored ones — and counted as [pruned].
      Crash decisions commute with steps of other processes, which
      collapses the many equivalent placements of a crash point.
    - {b budgets}: [max_depth] bounds the length of a single run
      (protocols with wait-loops have unboundedly long fair runs;
      deeper runs are cut and counted as [truncated], with the
      property still checked on the partial outcome — a safety check),
      and [max_runs] bounds the total number of counted executions.

    When the search finishes within its budgets ([exhausted = true]),
    every interleaving of length ≤ [max_depth] (with ≤ [max_crashes]
    crashes among [crashable]) has been covered up to commutation of
    independent steps.

    {b Subtree tasks.} Every exploration runs as a list of subtree
    tasks, each a forced (chosen, done)-prefix whose branch set, sleep
    sets and sibling context are deterministic functions of the prefix.
    With [domains = 1] the list is the single root task (empty prefix),
    i.e. one DFS over the whole tree. With [domains > 1] (default:
    [Parallel.default_domains], i.e. [FACT_DOMAINS]) the tree is split
    into several tasks that run on the work-stealing domain pool,
    sleep-set pruning staying local to each subtree. Per-task tallies
    are merged by a deterministic reduction (counter sums, pattern- and
    class-set unions, violation concatenation in task order), so the
    resulting stats are bit-identical for {e any} domain count. Under a
    [max_runs] budget, tasks are committed in order: a task's parallel
    result is kept when it fits the budget the tasks before it leave,
    the one task that straddles the budget is rerun with its exact
    remaining budget, and tasks past it abort early. See DESIGN.md
    §5b. *)

open Fact_topology
open Fact_runtime

type config = {
  max_crashes : int;  (** crash budget per run (0 = failure-free) *)
  crashable : Pset.t; (** processes the explorer may crash *)
  max_depth : int;    (** decisions per run before truncation *)
  max_runs : int;     (** total counted executions (incl. pruned/truncated) *)
}

val config :
  ?max_crashes:int -> ?crashable:Pset.t -> ?max_depth:int ->
  ?max_runs:int -> unit -> config
(** Defaults: no crashes, [crashable = ∅], depth 256, 100_000 runs. *)

type 'r outcome = {
  report : 'r Exec.report;
  trace : Trace.t;     (** the decisions of this run, replayable *)
  truncated : bool;    (** hit [max_depth] *)
}

type 'r stats = {
  runs : int;            (** completed runs (every process stopped) *)
  truncated : int;       (** runs cut by [max_depth] *)
  pruned : int;          (** prefixes abandoned by sleep-set pruning *)
  crash_patterns : int;  (** distinct faulty sets over completed runs *)
  classes : int list list;
      (** distinct [classify] values over the counted runs, sorted *)
  violations : 'r outcome list;  (** property failures, oldest first *)
  exhausted : bool;      (** the whole bounded space was covered *)
}

type frontier = (Trace.decision * Trace.decision list) list
(** Per depth, outermost first: the chosen decision and the
    fully-explored siblings. *)

type tally = {
  t_runs : int;
  t_truncated : int;
  t_pruned : int;
  t_patterns : int list;
      (** {!Pset.to_mask} of each completed run's faulty set *)
  t_classes : int list list;
      (** the task's distinct [classify] values. Not persisted by
          {!Checkpoint}: a harness that classifies keeps the union in
          its own checkpoint field. *)
  t_viol : (Trace.decision list * bool) list;
      (** the violating runs found so far, as (decisions, truncated)
          pairs, oldest first. Only traces are persisted, never
          verdicts: a resume re-evaluates each one by observed replay
          against the current subject (and drops runs its assertions
          now pass), so a checkpoint taken under one assertion set is
          safe to resume under another. *)
  t_exhausted : bool;
      (** the task covered its whole subtree (always [false] in
          [Active]) *)
}
(** The counters of one subtree task. *)

type progress = Todo | Done of tally | Active of tally * frontier
(** Where one subtree task stands: not started, finished, or
    interrupted with its counters so far and a resumable frontier that
    extends the subtree's prefix. [enabled] sets, sleep sets and saved
    states are deliberately absent: they are deterministic functions of
    the decision prefix, so resuming executes one run under forcing
    along the frontier to rebuild them, then branches from there. *)

type subtree = {
  prefix : frontier;
      (** the forced (chosen, done)-prefix identifying the subtree;
          empty for the root task *)
  progress : progress;
}

type snapshot = subtree list
(** What [on_checkpoint] receives and [resume] accepts: the progress
    of every subtree task, in DFS order. A snapshot taken at any domain
    count resumes at any other. Serialized by {!Checkpoint}. *)

val explore :
  ?config:config ->
  ?stop_on_violation:bool ->
  ?classify:('r outcome -> int list option) ->
  ?resume:snapshot ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(snapshot -> unit) ->
  ?domains:int ->
  n:int ->
  participants:Pset.t ->
  subject:(unit -> 'r Subject.t) ->
  unit ->
  'r stats
(** [explore ~n ~participants ~subject ()] runs the DFS. [subject] is
    called once per subtree task (and once per uncounted replay) and
    must return a fresh {!Subject.t}: fresh processes over fresh shared
    state, paired with the verdict of that instance's assertions (wrap
    plain processes and a report property with {!Subject.of_procs}).
    The subject's [check] is evaluated on every (completed or
    truncated) run; a subject that observes no process records no
    events. [classify] maps a counted run to a class (e.g. the ordered
    partition of an immediate-snapshot run, as block masks); the
    distinct classes of the committed runs come back in
    [stats.classes]. [stop_on_violation] (default [false]) stops at the
    first failure — useful as a counterexample finder. [domains]
    (default [Parallel.default_domains ()]) > 1 fans the search out
    over the domain pool; the resulting stats are identical whatever
    the value. Every path runs the subtree-task driver: one domain runs
    the single root task, or a resumed snapshot's tasks in order.

    {b Parallel-mode caveats.} [subject] and [classify] run on worker
    domains, possibly concurrently — they must be thread-safe (fresh
    state per task plus immutable/interned shared data satisfies this).
    [classify] must also be pure: under a [max_runs] budget it may see
    runs of a speculative pass whose results are then discarded, which
    is harmless because only committed tasks' classes are merged.
    Splitting the tree costs a handful of uncounted probe executions.

    {b Resilience.} The ambient {!Fact_resilience.Cancel} token is
    polled once per execution (on every worker); on a trip each task
    flushes its frontier and the explorer surfaces one final resumable
    snapshot through [on_checkpoint] before re-raising the typed
    error. [checkpoint_every = k > 0] also calls [on_checkpoint] every
    [k] executions (per task). [resume] restores a
    previous snapshot: counters continue from the snapshot and each
    interrupted DFS first re-executes its frontier under forcing, so
    the resumed exploration reaches exactly the stats an uninterrupted
    one would; recorded violations are re-evaluated by uncounted
    replays against the current subject rather than trusted (see
    [t_viol]). Resuming against a different protocol or configuration
    raises a [Precondition] {!Fact_resilience.Fact_error}. *)

val pp_stats : Format.formatter -> 'r stats -> unit
