(** Execute a grid, one content-addressed result per cell.

    Two backends answer the same cells with byte-identical
    deterministic cores (the repository's determinism invariant —
    {!Fact_serve.Query.eval} is independent of domain count, cache
    caps and cache temperature — is what makes this hold):

    - {!Local}: cells fan out through the in-process
      {!Fact_topology.Parallel} work-stealing pool. Cells are grouped
      by their environment axes (domains, cache-cap); each group
      applies its settings process-wide, runs its cells, and the
      previous settings are restored afterwards. Per-cell deadlines
      ride a {!Fact_resilience.Cancel} token around the evaluation.
    - {!Serve}: each cell becomes one
      {!Fact_serve.Client.query_with_retry} against a running [fact
      serve]; the cell deadline travels with the request and is
      enforced server-side.

    {b Resume.} A cell whose valid [.result] already exists is
    skipped; a corrupt one is quarantined and recomputed. Failed
    cells persist their typed outcome class and are skipped on resume
    too — except [unavailable] (the retryable class), which leaves no
    result so the next run retries it.

    {b Telemetry caveat.} Local cache-counter deltas are snapshots of
    the process-wide registry around each cell; when several cells run
    concurrently their deltas overlap. Timing sidecar only — the
    deterministic core never contains counters. *)

type backend =
  | Local
  | Serve of {
      addr : Fact_serve.Listener.addr;
      retries : int;
      backoff : Fact_resilience.Backoff.policy option;
      timeout_s : float;
    }

type progress = {
  total : int;
  ran : int;
  skipped : int;
  ok : int;
  failed : int;
}

val backend_name : backend -> string

val run :
  ?log:(string -> unit) ->
  backend:backend ->
  dir:string ->
  Grid.spec ->
  progress
(** Initializes [dir]'s layout, executes every pending cell, writes
    results. Results are written as cells finish: a {!Local} group as
    soon as its fan-out returns, a {!Serve} cell as soon as it is
    answered, so a run that dies part-way leaves every finished group
    or cell to resume from. [log] receives one line per group and per
    cell plus a summary. *)
