(** Explicit scheduling decision traces.

    A trace is the complete record of one execution of the cooperative
    executor: the universe size, the participating set, and the
    sequence of scheduling decisions — [Step p] (process [p] takes its
    next atomic step) or [Crash p] (process [p] crashes before its next
    step). Because every protocol of the runtime is deterministic given
    its schedule, a trace replays byte-identically ({!Replay}).

    Traces serialize to a small s-expression text form, suitable for
    logs, EXPERIMENTS.md and bug reports:

    {v ((n 3) (participants (0 1 2)) (decisions (s0 s1 c2 s0 s1))) v}

    where [s<p>] is a step of process [p] and [c<p>] a crash. *)

open Fact_topology

type decision = Step of int | Crash of int

type t

val make : n:int -> participants:Pset.t -> decision list -> t
(** Validates that every decision names a participant and that no
    process steps or crashes after it crashed. Raises
    [Invalid_argument] otherwise. *)

val n : t -> int
val participants : t -> Pset.t
val decisions : t -> decision list
val length : t -> int

val to_string : t -> string
val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error msg] on malformed input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_decision : Format.formatter -> decision -> unit

(** {2 S-expression plumbing}

    The grammar and reader live in the shared {!Fact_sexp.Sexp}
    module; only the decision-atom conversions are trace-specific.
    Other persisted artifacts (exploration checkpoints,
    {!Checkpoint}; the [fact serve] wire protocol) build on the same
    module. *)

val decision_of_sexp : Fact_sexp.Sexp.t -> (decision, string) result
(** Decision atoms are [s<p>] / [c<p>], as printed by
    {!pp_decision}. *)

val sexp_of_decision : decision -> Fact_sexp.Sexp.t
