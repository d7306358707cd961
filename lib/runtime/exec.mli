(** Cooperative executor for asynchronous shared-memory protocols,
    built on OCaml 5 effects.

    Each process runs as a fiber; it calls {!yield} (or {!yield_op},
    announcing the operation it is about to perform) before every
    atomic shared-memory operation, giving the scheduler an
    interleaving point. Code between two yields executes atomically —
    this is how the atomic-snapshot semantics of {!Memory} is realized.
    A {!Schedule} decides which fiber steps next and which processes
    crash; controlled schedules additionally see the pending operation
    of every suspended fiber, which is what the systematic explorer of
    [Fact_check] uses to prune commuting interleavings. *)

open Fact_topology

val yield : unit -> unit
(** Interleaving point. A no-op when called outside {!run} (so protocol
    code can also be executed sequentially, e.g. in unit tests). *)

val yield_op : Op.t -> unit
(** Like {!yield}, but announces the shared-memory operation the
    process will perform right after being rescheduled. All {!Memory}
    primitives yield through this, so controlled schedules know each
    process's pending operation. *)

type 'r outcome =
  | Decided of 'r     (** the process returned a value *)
  | Crashed of int    (** crashed by the schedule after [k] steps *)
  | Running           (** still alive when the executor stopped *)

type 'r report = {
  outcomes : 'r outcome array;
  steps : int;                  (** total scheduler steps *)
  hit_step_budget : bool;
}

val run :
  ?max_steps:int ->
  ?on_step:(pid:int -> Op.pending -> unit) ->
  ?on_crash:(pid:int -> unit) ->
  schedule:Schedule.t ->
  (int -> 'r) array ->
  'r report
(** [run ~schedule procs] executes [procs.(i) i] for each participant
    [i] of the schedule under its interleaving, crashing processes as
    the schedule dictates, until every non-crashed participant has
    decided (or [max_steps], default 100_000, is hit — then remaining
    processes report [Running]). Non-participants report [Running]
    with 0 steps. Exceptions raised by a process propagate. Before
    [run] returns, every process still suspended is unwound (its
    finalizers run once, no hook is called) so its fiber stack is
    freed; it keeps reporting [Running].

    [on_step] is a trace hook called right before each scheduler step
    with the stepping process and the operation it is about to perform
    ([Start] for its very first step). Crash events do not invoke the
    hook (they execute no operation); they invoke [on_crash] instead,
    right before the fiber is discontinued — together the two hooks
    observe the full decision sequence of the run, which is what the
    assertion monitors of [Fact_check] consume. *)

val decided : 'r report -> (int * 'r) list
(** The decided processes with their values, by increasing id. *)

val decided_set : 'r report -> Pset.t
