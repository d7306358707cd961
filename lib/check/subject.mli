(** A system under test bundled with its observers: the unit the
    explorer and the replayer execute.

    A subject pairs the fresh processes of one protocol instance with
    the set of processes whose events its assertions read and the
    verdict function over a run's report and events. Bundling them is
    what lets assertions ({!Assertion.subject}) close over the very
    protocol instance the processes share — object ids are
    per-instance, so an observer built against another instance would
    watch the wrong objects.

    The subject itself keeps no state about a run: the executor of the
    run (the explorer or the replayer) records the events, as a list
    newest first, and hands them to [check]. So the explorer can save
    an event log at a branch point for free and resume from it.
    Builders are functions [unit -> 'r t] and every call must return
    fresh processes over fresh shared state. A subject whose assertion
    needs no events has [observed = Pset.empty]: nothing is recorded
    and its executions are bit-identical to unmonitored ones. *)

open Fact_topology
open Fact_runtime

type event =
  | Stepped of { e_pid : int; e_op : Op.pending }
  | Crashed of { e_pid : int }

type 'r t = {
  procs : (int -> 'r Proc.t) array;  (** fresh processes, one instance *)
  observed : Pset.t;
      (** the processes whose events [check] reads *)
  ordered : Pset.t;
      (** the processes whose relative event order [check] reads: the
          explorer treats steps (and crashes) of two distinct processes
          of this set as dependent, even when their operations commute *)
  check :
    'r Exec.report -> events:event list -> truncated:bool ->
    (unit, string) result;
      (** the verdict on a run of these processes, given the events of
          [observed] processes newest first; [truncated] tells
          liveness parts to hold vacuously *)
}

val of_procs : prop:('r Exec.report -> bool) -> (int -> 'r Proc.t) array -> 'r t
(** Wrap plain processes and a boolean report property into a subject
    with no observers ([observed] and [ordered] empty). *)

val record : 'r t -> event -> event list -> event list
(** [record s e events] adds [e] to [events] when its process is
    observed. *)
