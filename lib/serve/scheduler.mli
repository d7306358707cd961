(** The request scheduler behind the listener.

    One executor thread drains a queue of submitted queries in
    batches: each drain grabs {e every} pending request, so requests
    that arrive while a pipeline runs are executed back to back on the
    warm memo tables (and fan out over the
    {!Fact_topology.Parallel} domain pool inside the pipeline).
    Within and across batches, identical queries are {b deduplicated}
    by content digest: submitters of an in-flight digest park on the
    job and share its single result ([dedup] counts those joins).

    Results land in a bounded {!Fact_resilience.Cache.Make} result
    cache keyed by digest. With a {!Store.t} attached, the cache is
    warm-started from disk on creation, every computed result is
    written through, and evictions are persisted — so a restarted
    server answers from the store instead of recomputing.

    {b Deadlines.} A request's [deadline_s] covers its whole life,
    queueing included: the executor maps the remaining budget onto a
    {!Fact_resilience.Cancel} token around the pipeline, so one slow
    request times out with a typed [Deadline_exceeded] while the
    executor moves on to the next job. *)

type t

type outcome = { payload : string; source : Wire.source }

val create : ?store:Store.t -> ?cache_cap:int -> unit -> t

val submit :
  t -> ?deadline_s:float -> Query.t ->
  (outcome, Fact_resilience.Fact_error.t) result
(** Blocks until the query completes, fails, or times out. Safe to
    call from many threads. After {!shutdown}, returns a [Cancelled]
    error. *)

val dedup : t -> int
(** Requests that joined an in-flight identical query. *)

val latency : t -> string -> Histogram.t option
(** [latency t endpoint]: a snapshot of the endpoint's log-bucket
    latency histogram (request lifetime in ms, queueing included), or
    [None] if the endpoint was never hit. Feed it to
    {!Histogram.percentile} for p50/p95/p99 — the same accessor
    [fact report] uses. *)

val stats_text : t -> string
(** Human-readable server statistics: per-endpoint request counts and
    latency histograms, dedup/batch counters, result-cache and store
    counters, and the pipeline-wide {!Fact_resilience.Cache} registry
    counters. *)

val store : t -> Store.t option
val shutdown : t -> unit
(** Fails pending jobs with [Cancelled], stops and joins the executor
    thread. Idempotent. *)
