(** Typed failure taxonomy for the FACT runtime.

    Every long-running entry point of the library reports failures
    through {!exception-Error} carrying one of the five classes below,
    instead of bare [Invalid_argument]/[Failure] backtraces escaping to
    the CLI. Each class maps to a distinct, documented process exit
    code (see {!exit_code}), so scripts driving [fact] can react to
    {e why} a command failed, not just that it did.

    - [Precondition]: the caller violated a documented API
      precondition ([fn] is the offending entry point). Replaces
      [invalid_arg] at library boundaries.
    - [Deadline_exceeded]: a {!Cancel} token's deadline elapsed while
      the computation was polling cooperatively.
    - [Cancelled]: a {!Cancel} token was triggered externally.
    - [Worker_failure]: a parallel fan-out lost one or more worker
      chunks and the sequential retry failed too; the payload
      aggregates every per-chunk failure.
    - [Resource_limit]: a configured resource bound was exceeded
      (e.g. a cache invariant check tripped, or a frontier outgrew a
      hard cap).
    - [Unavailable]: a service dependency is (possibly transiently)
      unreachable — a socket that cannot be bound because the previous
      owner's address lingers, a server that refuses connections or
      drops one mid-exchange. Unlike [Precondition] this is
      {e retryable}: clients respond with {!Backoff} and a fresh dial,
      not by giving up. *)

type t =
  | Precondition of { fn : string; what : string }
  | Deadline_exceeded of { where : string; budget_s : float }
  | Cancelled of { where : string }
  | Worker_failure of { fn : string; failed : int; chunks : int; first : string }
  | Resource_limit of { what : string; limit : int; got : int }
  | Unavailable of { what : string }

exception Error of t

val raise_error : t -> 'a
val precondition : fn:string -> string -> 'a
(** [precondition ~fn msg] raises [Error (Precondition _)] — the typed
    replacement for [invalid_arg (fn ^ ": " ^ msg)]. *)

val unavailable : string -> 'a
(** Raises [Error (Unavailable _)]. *)

val is_unavailable : exn -> bool
(** True for [Error (Unavailable _)]: failures a retry/backoff layer
    may absorb instead of propagating. *)

val is_cancellation : exn -> bool
(** True for [Error (Cancelled _ | Deadline_exceeded _)]: failures that
    mean "stop asked for", not "computation broken" — fan-out layers
    propagate these directly instead of wrapping them in
    [Worker_failure]. *)

val exit_code : t -> int
(** Documented process exit codes: [Precondition] 2,
    [Deadline_exceeded] 3, [Cancelled] 4, [Worker_failure] 5,
    [Resource_limit] 6, [Unavailable] 7. (0 is success; 1 is reserved
    for property violations / counterexamples.) *)

val to_string : t -> string
(** One-line rendering, ["fact_error(<class>): ..."]. Also installed as
    the [Printexc] printer for {!exception-Error}. *)

val pp : Format.formatter -> t -> unit
