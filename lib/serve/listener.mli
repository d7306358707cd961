(** The connection front-end of [fact serve].

    Accepts clients on a Unix-domain or TCP socket and speaks the
    {!Wire} protocol: each connection is served by its own thread,
    which reads length-prefixed request frames, dispatches to a
    pluggable request handler — the shared {!Scheduler} in [fact serve]
    ({!start_scheduler}) — and writes one response frame per request.

    {b Fault policy.} A well-framed but malformed request (bad sexp,
    wrong version, unknown endpoint) gets a typed [Refused
    Precondition] response and the connection stays usable. An
    oversized frame gets a typed [Refused Resource_limit] response and
    the connection is then closed — past a bad length prefix the
    stream can no longer be trusted. A client that disconnects
    mid-response only kills its own connection thread ([SIGPIPE] is
    ignored); the listener and every other connection keep serving. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:/path"] or ["tcp:host:port"]; a bare path means a
    Unix-domain socket. *)

val addr_to_string : addr -> string

type t

val start :
  ?max_frame:int ->
  ?on_stop:(unit -> unit) ->
  handler:(Wire.request -> Wire.response) ->
  addr ->
  t
(** Binds, listens, and returns once the socket is accepting. The
    [handler] receives every request except [Shutdown] (which the
    listener acknowledges itself before initiating its stop path); a
    typed {!Fact_resilience.Fact_error} it raises is turned into a
    [Refused] response. [on_stop] runs exactly once, at the end of the
    first completed {!stop}. Raises a typed [Unavailable] error (exit
    code 7, retryable — think [EADDRINUSE] right after a crash) if the
    address cannot be bound, so a restart backs off and retries
    instead of dying. *)

val start_scheduler : ?max_frame:int -> scheduler:Scheduler.t -> addr -> t
(** {!start} with the single-worker handler: [Query] →
    {!Scheduler.submit}, [Stats] → {!Scheduler.stats_text}, and
    [on_stop] → {!Scheduler.shutdown}. *)

val addr : t -> addr

val bound_addr : t -> addr
(** Like {!addr}, but with a TCP port of 0 resolved to the port the
    kernel actually assigned. *)

val stop : t -> unit
(** Stops accepting, closes the listening socket, joins the accept
    thread, then runs [on_stop] (once). Idempotent. *)

val wait : t -> unit
(** Blocks until the listener stops — either {!stop} from another
    thread or a client [Shutdown] request. *)
