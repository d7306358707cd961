(** Processes as resumable step values.

    A process is either finished with its result, or suspended before
    one shared-memory request ({!Op.req}) together with the rest of the
    process: an ordinary closure from the request's answer to the next
    step value. Nothing is hidden in a fiber, so a step value can be
    stored and resumed any number of times — this is what lets the
    explorer of [Fact_check] branch from a saved state instead of
    replaying a run from its start.

    Protocol code is written in the monad below and must be pure
    between requests: all shared state lives in {!Memory} objects,
    which only the executor changes. *)

type 'r t =
  | Done of 'r
  | Step : 'a Op.req * ('a -> 'r t) -> 'r t

val return : 'r -> 'r t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t

val perform : 'a Op.req -> 'a t
(** One request, answered by its result. *)
