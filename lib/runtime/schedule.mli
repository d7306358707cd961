(** Asynchronous schedules with crash injection.

    A schedule drives the cooperative executor ({!Exec}): at each step
    it names the process that takes the next atomic shared-memory
    operation. Crash injection models the adversarial/α-model runs of
    the paper: a faulty process takes a bounded number of steps and
    then stops forever; correct processes are scheduled until they
    decide.

    Schedules are stateful values; build a fresh one per run. *)

open Fact_topology
open Fact_adversary

type t

val n : t -> int
val participants : t -> Pset.t
val faulty : t -> Pset.t
(** The processes this schedule will crash. Empty for {!controlled}
    schedules (their crashes are decided by the callback, not known up
    front). *)

val next : ?pending:(int -> Op.pending) -> t -> alive:Pset.t -> int option
(** The next process to step among [alive] (running processes that are
    neither finished nor crashed), or [None] to stop (never happens for
    the built-in schedules while [alive] is nonempty). [pending]
    reports the operation each process is suspended before — the
    executor supplies it; only {!controlled} schedules look at it, and
    it defaults to "unknown" when absent. *)

val crash_now : t -> pid:int -> steps_taken:int -> bool
(** Should this process crash before taking its next step? *)

val controlled :
  n:int ->
  participants:Pset.t ->
  next:(alive:Pset.t -> pending:(int -> Op.pending) -> int option) ->
  crash_now:(pid:int -> steps_taken:int -> bool) ->
  t
(** A schedule driven entirely by callbacks: [next] names the process
    to step (or [None] to stop the run), [crash_now] decides crashes.
    This is the hook the systematic explorer and the trace replayer of
    [Fact_check] plug into; the callbacks see the pending operation of
    every suspended process. *)

val round_robin : n:int -> participants:Pset.t -> t
(** Failure-free round-robin among the participants. *)

val sequential : n:int -> participants:Pset.t -> t
(** Runs participants one after the other to completion, in increasing
    id order (a fully ordered run). *)

val random : seed:int -> n:int -> participants:Pset.t ->
  crashes:(int * int) list -> t
(** Uniform random interleaving of the participants;
    [crashes = [(pid, k); …]] crashes [pid] after its k-th step. *)

val alpha_model : seed:int -> Agreement.t -> participation:Pset.t -> t
(** A random α-model schedule: requires [α(P) ≥ 1]; picks a uniformly
    random faulty subset of size ≤ α(P) − 1 and random crash points,
    then interleaves uniformly. Raises a [Precondition]
    {!Fact_resilience.Fact_error} if [α(P) = 0] (the α-model has no
    such run). *)

val adversarial : seed:int -> Adversary.t -> live:Pset.t -> t
(** A random A-compliant schedule over participation = the whole
    universe with correct set exactly [live] (which must be a live set
    of the adversary; raises otherwise). Faulty processes crash after
    a random number of steps. *)
