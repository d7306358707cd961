(** Seeded fault injection: one driver, one stats schema.

    A {e tier} is a table of fault kinds over an environment (the
    [R_A] pipeline here, a live listener in
    [Fact_serve.Serve_chaos]). {!drive} seeds
    [Random.State.make [| seed; salt |]], draws each fault uniformly
    from the table, counts it under its kind and runs it; the fault
    checks its own invariant and reports through the {!probe}. An
    exception escaping a fault is itself a violation naming the kind,
    so one bad injection never aborts the campaign. The cache audit
    flag ({!Fact_resilience.Cache.checking}) is restored on exit,
    whatever happens.

    {!run} is the pipeline tier. Its fault kinds and invariants:

    - {b worker crash}: a deterministically-failing chunk inside
      {!Fact_topology.Parallel.map} must surface as a single typed
      [Worker_failure] — never a raw exception, a hang, or a partial
      result — and the very next fan-out must succeed (no leaked
      domains or poisoned state).
    - {b transient}: a chunk that fails once and then succeeds must be
      recovered by the sequential retry, with the result byte-identical
      to the fault-free reference.
    - {b cancel}: an ambient {!Fact_resilience.Cancel} token tripping
      after a random number of polls inside [Ra.complex] either lets
      the call complete with the reference result or raises a typed
      [Cancelled] (a [cancel trips] outcome); a fault-free recompute
      afterwards still matches the reference.
    - {b explore storms}: an ambient token cancels a parallel
      exploration (one-shot IS, [n = 3], on the domain pool)
      mid-search; the snapshot flushed on the trip is resumed
      fault-free and the resumed stats and partitions must be
      bit-identical to the uninterrupted reference.
    - {b assertion sweeps}: a random seeded {!Mutant} is hunted with
      the assertion DSL — the mutant must still be caught, and its
      shrunk counterexample must replay standalone; a surviving mutant
      is a violation (the assertions lost their teeth).
    - {b evictions}: with recompute-equality checking on, all bounded
      caches are flushed mid-pipeline and the recomputed [R_A] must
      equal the reference (a mismatch raises from the cache itself and
      is reported as a violation).

    A healthy tree reports [violations = []]. *)

type stats = {
  tier : string;              (** [pipeline] or [listener] *)
  injected : int;             (** total faults injected *)
  faults : (string * int) list;    (** injections per kind, table order *)
  outcomes : (string * int) list;  (** tier-specific outcome counters *)
  typed_errors : int;         (** faults surfacing as a typed [Fact_error] *)
  recovered : int;            (** checks that found a correct result *)
  violations : string list;   (** invariant failures, oldest first *)
}

val count : stats -> string -> int
(** The counter of a fault kind or outcome; [0] if the tier has none. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line: [tier: injected N (kind n, ...) outcome n ... typed errors
    n recovered n violations n]. *)

(** {2 Writing a tier} *)

type probe
(** One run's random state and tallies. *)

type 'env fault = { kind : string; inject : probe -> 'env -> unit }

val rng : probe -> Random.State.t
(** The seeded state the driver draws faults from; faults draw their
    parameters from it too, so a seed fixes the whole sequence. *)

val bump : probe -> string -> unit
(** Increment a declared outcome counter. *)

val typed : probe -> unit
val recovered : probe -> unit
val violation : probe -> ('a, unit, string, unit) format4 -> 'a

val drive :
  fn:string ->
  tier:string ->
  salt:int ->
  ?seed:int ->
  ?outcomes:string list ->
  max_faults:int ->
  with_env:(probe -> ('env -> unit) -> unit) ->
  'env fault list ->
  stats
(** [drive ~fn ~tier ~salt ~max_faults ~with_env faults] raises a
    [Precondition] {!Fact_resilience.Fact_error} naming [fn] if
    [max_faults < 1]. Otherwise [with_env] sets the environment up,
    passes it to the storm of [max_faults] faults (default [seed = 0])
    and tears it down; checks it makes before the storm report through
    the same probe. [outcomes] declares the counters {!bump} may
    increment. *)

val run : ?seed:int -> max_faults:int -> unit -> stats
(** The pipeline tier (salt [0xc4a05], [fn = "Chaos.run"]). *)
