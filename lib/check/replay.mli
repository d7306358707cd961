(** Deterministic replay of decision traces.

    All protocols of the runtime are deterministic functions of the
    schedule (no hidden randomness, all shared state goes through
    {!Fact_runtime.Memory}), so replaying a {!Trace.t} against fresh
    protocol state reproduces the original run byte-identically:
    same interleaving, same memory contents, same outcomes.

    Decisions that are not applicable at replay time (a step or crash
    of a process that has already finished or crashed — this happens
    for traces edited by the shrinker) are skipped; the run stops when
    the trace is exhausted. *)

open Fact_runtime

val schedule : Trace.t -> Schedule.t
(** A fresh controlled schedule that follows the trace's decisions and
    then stops. Stateful — build a new one per run. *)

val run :
  ?max_steps:int -> procs:(int -> 'r Proc.t) array -> Trace.t -> 'r Exec.report
(** [run ~procs tr] replays [tr] against freshly created processes
    (the caller must supply fresh shared state — replaying against
    used state is meaningless). *)

val run_subject :
  ?max_steps:int ->
  ?truncated:bool ->
  subject:'r Subject.t ->
  Trace.t ->
  'r Exec.report * (unit, string) result
(** Observed replay: run the trace against a fresh {!Subject.t},
    recording the events of its observed processes, and return the
    report together with the subject's verdict on it. [truncated] (default [false]) tells liveness
    assertions the original run hit the depth budget, so they hold
    vacuously — pass it when re-checking a truncated exploration
    outcome. *)

val check :
  ?truncated:bool ->
  subject:(unit -> 'r Subject.t) ->
  Trace.t ->
  (unit, string) result
(** [check ~subject tr]: the verdict of one observed replay of [tr]
    against a fresh subject. This is the standalone counterexample
    checker: a reported violation must fail this check from nothing
    but the trace and the subject builder. *)
