(** Deterministic exponential-backoff policies.

    A policy describes how long to wait before retry attempt [k]:
    [base_ms * multiplier^k], capped at [max_ms]. There is no jitter —
    the repository's bit-identical-results discipline extends to
    retry schedules, so a client re-dialling a server produces a
    reproducible timeline.

    The policy is plain data; {!delay_ms} is a pure function of
    [(policy, attempt)], so tests can assert whole schedules without
    sleeping. *)

type policy = {
  base_ms : float;  (** delay before the first retry (attempt 0) *)
  multiplier : float;  (** growth factor per attempt, >= 1.0 *)
  max_ms : float;  (** hard cap on any single delay *)
}

val default : policy
(** 50 ms base, doubling, capped at 2 s — the client default. *)

val make : ?base_ms:float -> ?multiplier:float -> ?max_ms:float -> unit -> policy
(** Raises a typed [Precondition] {!Fact_error} if [base_ms < 0],
    [multiplier < 1.0], or [max_ms < base_ms]. *)

val delay_ms : policy -> attempt:int -> float
(** Delay before retry number [attempt] (0-based). Pure; negative
    attempts are treated as 0. Overflow-safe: once the running product
    reaches [max_ms] it stays there. *)

val schedule : policy -> attempts:int -> float list
(** [delay_ms] over [0 .. attempts-1] — the whole retry timeline. *)

val sleep : policy -> attempt:int -> unit
(** [Thread.delay (delay_ms policy ~attempt / 1000.)]. *)
