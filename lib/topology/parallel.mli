(** Multicore fan-out over a persistent work-stealing domain pool
    (OCaml 5 stdlib only).

    One pool per process: worker domains are spawned lazily on first
    use, grown monotonically to the largest requested count minus one
    (the calling domain always helps), reused by every subsequent
    fan-out, and joined at process exit — {!domain_spawns} counts how
    many domains were ever spawned, so a long run that performs
    thousands of fan-outs still reports a handful. Scheduling is a
    shared FIFO injector plus per-worker deques: workers pop their own
    deque LIFO, then the injector, then steal FIFO from other deques;
    a nested fan-out issued from inside a job goes to the issuing
    worker's own deque, so recursion runs depth-first without spawning
    or deadlocking; the issuing worker pops its group in submission
    order while thieves take the group's last jobs.

    For {!map}: lists are split into contiguous chunks, results are
    concatenated in order — so for a pure [f] the output equals
    [List.map f xs] whatever the domain count. With [domains <= 1] no
    pool is touched and the call {e is} [List.map f xs] (bit-identical
    sequential fallback).

    The default domain count is 1, overridable with the
    [FACT_DOMAINS] environment variable (read once at startup) or
    {!set_default_domains} (e.g. the bench [--domains] flag).

    {b Cancellation}: the submitter's ambient {!Fact_resilience.Cancel}
    token is captured at submission and installed around each job on
    whichever domain runs it, so cancelling the submitter trips every
    worker processing its jobs.

    {b Fault tolerance} of {!map}/{!map_init} (parallel path only):
    every chunk settles before any exception escapes — a raising [f]
    never loses a chunk. Chunks whose job raised are retried once,
    sequentially, on the calling domain; if the retry fails too, the
    call raises a single aggregated [Fact_error.Worker_failure] naming
    the failed chunk count and the first failure. Cancellation
    ([Fact_error.Cancelled]/[Deadline_exceeded]) is never retried or
    wrapped: it is re-raised as-is, so deadlines stay prompt. On the
    sequential path ([domains <= 1]) exceptions from [f] propagate
    untouched, exactly as [List.map].

    Worker discipline: workers may build vertices and simplices (the
    intern tables are mutex-protected and the values immutable), but
    must not force mutable caches — e.g. [Complex.all_simplices] — on
    complexes shared between domains. *)

val default_domains : unit -> int
val set_default_domains : int -> unit
(** Clamped below at 1. *)

val domain_spawns : unit -> int
(** Domains ever spawned by the pool in this process — stays at
    [requested - 1] however many fan-outs run. *)

val run_all :
  ?workers:int ->
  (unit -> 'a) list ->
  ('a, exn * Printexc.raw_backtrace) result list
(** Run every thunk on the pool (the caller helps) and return all
    outcomes in order, each thunk's exception captured rather than
    propagated — nothing is retried, nothing is lost. [?workers]
    bounds pool growth (default {!default_domains}); with one thunk or
    an empty list the pool is not touched. The building block for
    schedulers that need their own failure policy (e.g. the explorer's
    subtree tasks). *)

val reraise : exn * Printexc.raw_backtrace -> 'a
(** Re-raise a captured exception with its original backtrace. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs = List.map f xs], fanned out over the pool in
    [domains] contiguous chunks. [?domains] defaults to
    {!default_domains}. *)

val concat_map : ?domains:int -> ('a -> 'b list) -> 'a list -> 'b list

val map_init : ?domains:int -> (unit -> 'ctx) -> ('ctx -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map} but each worker first builds a private context (e.g. a
    local memo table), threaded through its whole chunk. For the
    output to be independent of the domain count, [f ctx] must be pure
    modulo the context. *)
