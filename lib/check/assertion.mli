(** A combinator DSL for trace properties — SLOT-style declarative
    assertions over explored and replayed executions.

    The paper's solvability statements are universally quantified over
    fair runs; this module turns the per-protocol oracles that check
    them into {e data}: an {!t} is a composable property of one
    execution, evaluated against the execution's final report plus the
    sequence of scheduler events the executor of the run recorded for
    it ({!Subject.t}). Assertions serialize to s-expressions ([fact
    explore --assert <file>]), so the chaos harness and the CI sweep
    them without recompilation.

    {2 Semantics}

    An execution is observed as the final {!Fact_runtime.Exec.report}
    plus the event sequence (steps with their pending
    {!Fact_runtime.Op} descriptors, and crashes). Operators split into
    two levels:

    - {b report-level}: {!Eventually_decides} (termination — vacuous
      on truncated runs, the explorer's liveness-to-safety cut),
      {!Agreement}/{!Validity} (task schemas over the protocol's
      decision projection), and {!Named} (protocol-specific predicates
      registered in the {!env}, e.g. [is-valid-views]).
    - {b event-level}: [always]/[eventually]/[before] over event
      {!atom}s, and {!Frame} — "these processes touch only these
      objects", the Hoare-logic frame condition.

    {2 The frame rule}

    {!footprint} computes the set of processes whose events an
    assertion can inspect ([None] when a {!Named} predicate makes it
    opaque). Events of processes outside the footprint are discharged
    structurally: they are never recorded, so any reordering of an
    outside event with an adjacent {e independent} event (pending
    operations commute per {!Fact_runtime.Op.commute} — the same
    relation that justifies sleep-set pruning) leaves both the final
    report and the observed subsequence unchanged, hence the verdict.
    Assertions therefore compose across disjoint footprints without
    re-exploring: a conjunction's verdict on the explored quotient
    space equals its verdict on all interleavings. The property-based
    tests check this reordering-invariance against {!Op} metadata. *)

open Fact_topology
open Fact_runtime

(** {1 Syntax} *)

type atom =
  | Steps of Pset.t    (** a scheduler step of one of these processes *)
  | Crashes of Pset.t  (** a crash of one of these processes *)
  | Decides of Pset.t  (** the deciding (last) step of one of these *)
  | Touches of Pset.t * string list
      (** a step of one of these processes whose pending operation is
          on one of the named objects *)

type t =
  | Const of bool
  | Not of t
  | All of t list              (** conjunction; [All [] = Const true] *)
  | Any of t list              (** disjunction; [Any [] = Const false] *)
  | Implies of t * t
  | Always of atom             (** every event satisfies the atom *)
  | Eventually of atom         (** some event does (vacuous if truncated) *)
  | Before of atom * atom
      (** [Before (a, b)]: every [b]-event is preceded by an [a]-event *)
  | Eventually_decides of Pset.t option
      (** termination: every listed participant (default: all) decided
          or crashed; vacuous on truncated runs *)
  | Frame of Pset.t * string list
      (** frame condition: steps of these processes only touch the
          named objects *)
  | Agreement of int           (** ≤ k distinct values decided *)
  | Validity                   (** every decided value was proposed *)
  | Named of string            (** protocol predicate from the {!env} *)

(** {1 Observations and environments} *)

type event = Subject.event =
  | Stepped of { e_pid : int; e_op : Op.pending }
  | Crashed of { e_pid : int }

type 'r view = {
  v_report : 'r Exec.report;
  v_truncated : bool;
  v_participants : Pset.t;
  v_events : event array;  (** footprint-filtered, in schedule order *)
}
(** What one monitored execution looks like to an assertion. *)

type 'r env = {
  objects : (string * int) list;
      (** symbolic object names → per-instance {!Op.t} ids *)
  named : (string * ('r view -> (unit, string) result)) list;
      (** protocol-specific predicates for {!Named} *)
  decisions_of : ('r Exec.report -> (int * int) list) option;
      (** decision projection for {!Agreement}/{!Validity} *)
  proposals : (int * int) list;  (** per-process proposals for {!Validity} *)
}
(** The per-execution binding context. Object ids are globally
    monotonic and per-instance, so the environment must be rebuilt
    with each fresh protocol instance. *)

val env :
  ?objects:(string * int) list ->
  ?named:(string * ('r view -> (unit, string) result)) list ->
  ?decisions_of:('r Exec.report -> (int * int) list) ->
  ?proposals:(int * int) list ->
  unit ->
  'r env

(** {1 The frame rule} *)

val footprint : t -> Pset.t option
(** The processes whose events the assertion may inspect; [None] when
    it embeds an opaque {!Named} predicate (conservatively:
    everything). Verdicts are invariant under reorderings of
    independent events when at least one of the two is outside the
    footprint — see the module preamble. *)

(** {1 Evaluation} *)

val eval : env:'r env -> t -> 'r view -> (unit, string) result
(** Evaluate against one observed execution. [Error msg] explains the
    first violated obligation. *)

val subject :
  participants:Pset.t ->
  make:(unit -> (int -> 'r Proc.t) array * 'r env) ->
  t ->
  unit ->
  'r Subject.t
(** [subject ~participants ~make t] is a {!Subject} builder: each call
    invokes [make] for a fresh protocol instance (processes + the
    environment bound to that instance's object ids) and pairs it with
    the verdict of [t]. The subject observes the assertion's
    {!footprint} ([participants] when opaque); with an empty footprint
    nothing is recorded, so the run is bit-identical to an unmonitored
    one. *)

(** {1 Serialization} *)

val to_sexp : t -> Fact_sexp.Sexp.t
val of_sexp : Fact_sexp.Sexp.t -> (t, string) result
(** Round-trip: [of_sexp (to_sexp t) = Ok t]. The concrete syntax:
    [true], [false], [validity], [(not T)], [(and T ...)], [(or T ...)],
    [(implies T T)], [(always A)], [(eventually A)], [(before A A)],
    [(eventually-decides p ...)], [(frame (p ...) (obj ...))],
    [(agreement k)], [(named name)]; atoms [A] are [(steps p ...)],
    [(crashes p ...)], [(decides p ...)], [(touches (p ...) (obj ...))]. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit
