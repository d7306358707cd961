(** The executor of asynchronous shared-memory protocols.

    Each process is a step value ({!Proc.t}); the executor performs one
    pending request per scheduler step, so the code a process runs
    between two requests executes atomically — this is how the
    atomic-snapshot semantics of {!Memory} is realized. A {!Schedule}
    decides which process steps next and which processes crash;
    controlled schedules additionally see the pending operation of
    every suspended process, which is what the systematic explorer of
    [Fact_check] uses to prune commuting interleavings.

    An execution in progress is a {!machine}. Its state — every
    process's step value, the outcomes so far and the contents of the
    memories its processes touch — can be saved and restored, so a
    search can branch from a stored state instead of replaying a run
    from its start. Memory writes are logged in an undo trail, so
    restoring undoes the writes made since the save instead of copying
    memory: states must be restored last-saved first (a depth-first
    search does exactly that). *)

open Fact_topology

type 'r outcome =
  | Decided of 'r     (** the process returned a value *)
  | Crashed of int    (** crashed by the schedule after [k] steps *)
  | Running           (** still alive when the executor stopped *)

type 'r report = {
  outcomes : 'r outcome array;
  steps : int;                  (** total scheduler steps *)
  hit_step_budget : bool;
}

(** {1 Machines} *)

type 'r machine
(** One execution in progress. *)

val start :
  n:int -> participants:Pset.t -> (int -> 'r Proc.t) array -> 'r machine
(** A machine before any step: participant [i] will run [procs.(i) i]
    (called at its first step); non-participants never run. The
    processes must be fresh: closures over fresh shared state. *)

val alive : 'r machine -> Pset.t
(** Participants that have neither decided nor crashed. *)

val pending : 'r machine -> int -> Op.pending
(** The operation the process performs at its next step ([Start]
    before its first step). A finished or crashed process keeps the
    operation of its last step. *)

val step : 'r machine -> int -> unit
(** The next step of an alive process: its first step runs its local
    code up to its first request; every later step performs the pending
    request and runs the local code up to the next one. Exceptions
    raised by the process propagate. *)

val crash : 'r machine -> int -> unit
(** Crash an alive process before its next step. *)

val report : ?hit_step_budget:bool -> 'r machine -> 'r report
(** The outcomes so far (processes still alive are [Running]). *)

type 'r state
(** A saved machine state. *)

val save : 'r machine -> 'r state

val restore : 'r machine -> 'r state -> unit
(** Return the machine, and the memories its processes touched, to a
    saved state. Valid while no state saved before it has been
    restored since — states are restored last-saved first. *)

val state_pending : 'r state -> int -> Op.pending
(** {!pending} at the time the state was saved. *)

(** {1 Running under a schedule} *)

val run :
  ?max_steps:int ->
  ?on_step:(pid:int -> Op.pending -> unit) ->
  ?on_crash:(pid:int -> unit) ->
  schedule:Schedule.t ->
  (int -> 'r Proc.t) array ->
  'r report
(** [run ~schedule procs] executes [procs.(i) i] for each participant
    [i] of the schedule under its interleaving, crashing processes as
    the schedule dictates, until every non-crashed participant has
    decided (or [max_steps], default 100_000, is hit — then remaining
    processes report [Running]). Non-participants report [Running]
    with 0 steps. Exceptions raised by a process propagate.

    [on_step] is a trace hook called right before each scheduler step
    with the stepping process and the operation it is about to perform
    ([Start] for its very first step). Crash events do not invoke the
    hook (they execute no operation); they invoke [on_crash] instead,
    right before the crash — together the two hooks observe the full
    decision sequence of the run, which is what the assertion monitors
    of [Fact_check] consume. *)

val solo : 'r Proc.t -> 'r
(** Run one process by itself to completion, outside any schedule:
    every request is performed in order. *)

val decided : 'r report -> (int * 'r) list
(** The decided processes with their values, by increasing id. *)

val decided_set : 'r report -> Pset.t
