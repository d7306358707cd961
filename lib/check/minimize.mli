(** Greedy minimization of counterexample traces.

    Given a failing trace (one whose replay violates a property), the
    shrinker searches for a smaller trace that still fails, by
    repeatedly applying reductions and keeping any that preserve the
    failure:

    - cut a suffix of the decisions (binary-search style, halving);
    - drop a crash decision (fewer failures is a simpler run);
    - drop any single decision;
    - swap adjacent decisions of different processes to reduce the
      number of context switches (longer runs of the same process are
      easier to read).

    Every candidate is evaluated by deterministic replay against fresh
    protocol state ({!Replay.run}), so the result is a real failing
    execution, not an approximation. Shrinking terminates at a local
    minimum: no single reduction keeps the trace failing. *)

open Fact_runtime

val context_switches : Trace.t -> int
(** Number of adjacent decision pairs on different processes. *)

val shrink_trace : still_fails:(Trace.t -> bool) -> Trace.t -> Trace.t
(** The generic engine: [still_fails] decides whether a candidate
    trace preserves the failure (it must replay the candidate against
    fresh state). Assumes [still_fails tr]. *)

val shrink :
  procs:(unit -> (int -> 'r Proc.t) array) ->
  fails:('r Exec.report -> bool) ->
  Trace.t ->
  Trace.t
(** [shrink ~procs ~fails tr] assumes [fails (Replay.run ~procs:(procs ()) tr)]
    and returns a locally-minimal trace with the same guarantee.
    [procs] must build fresh process closures over fresh shared state
    on every call. *)

val shrink_subject :
  ?truncated:bool ->
  subject:(unit -> 'r Subject.t) ->
  Trace.t ->
  Trace.t
(** Assertion-aware shrinking: a candidate preserves the failure when
    {!Replay.check} against a fresh subject still reports a violated
    assertion. [truncated] is threaded to the liveness semantics (the
    original failing run hit the depth budget). *)
