(** Blocking client for the {!Wire} protocol.

    One connection, sequential request/response. All entry points
    raise typed {!Fact_resilience.Fact_error} errors — a server
    [Refused e] response is re-raised as [e] itself, so [fact client]
    exits with the same code the one-shot command would have.

    {b Failure classes.} Transport failures — server unreachable,
    connection closed mid-exchange, a bounded socket timing out — are
    [Unavailable] (exit code 7): the server may simply be restarting,
    so they are the retryable class {!with_retries} absorbs. Protocol
    failures (an unparseable or oversized reply) are [Precondition]
    and never retried. *)

type t

val connect : ?timeout_s:float -> Listener.addr -> t
(** Raises a typed [Unavailable] error if the server is unreachable.
    [timeout_s] bounds every subsequent send and receive on the
    connection ([SO_SNDTIMEO]/[SO_RCVTIMEO]), so a peer that accepted
    the connection and then stopped responding surfaces as a typed
    [Unavailable] instead of a hang. *)

val close : t -> unit

val roundtrip : t -> Wire.request -> Wire.response
(** One frame out, one frame in. Raises [Unavailable] on a dropped
    connection, [Precondition] on an un-parseable reply. Does {e not}
    unwrap [Refused]. *)

val query :
  t -> ?deadline_s:float -> Query.t -> string * Wire.source
(** Payload text plus where the server found it. Raises the server's
    typed error on [Refused]. *)

val stats : t -> string
val ping : t -> unit
val shutdown : t -> unit
(** Asks the server to stop; returns once it acknowledges. *)

val with_connection : ?timeout_s:float -> Listener.addr -> (t -> 'a) -> 'a

val with_retries :
  ?retries:int ->
  ?backoff:Fact_resilience.Backoff.policy ->
  ?timeout_s:float ->
  Listener.addr ->
  (t -> 'a) ->
  'a
(** [with_retries addr f] runs [f] over a fresh connection, retrying
    (a fresh dial each time, {!Fact_resilience.Backoff} between
    attempts) when the whole exchange fails with [Unavailable] —
    server-side refusals and protocol errors propagate immediately.
    [retries] counts {e extra} attempts after the first (default 2).
    When the budget is exhausted the last [Unavailable] is re-raised,
    so the CLI exits 7. *)

val query_with_retry :
  ?retries:int ->
  ?backoff:Fact_resilience.Backoff.policy ->
  ?timeout_s:float ->
  ?deadline_s:float ->
  Listener.addr ->
  Query.t ->
  string * Wire.source
(** {!with_retries} around {!query}. *)
