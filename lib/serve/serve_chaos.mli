(** Fault-injection tiers for the service layer: fault tables on the
    one seeded driver {!Fact_check.Chaos.drive}, reporting in its
    {!Fact_check.Chaos.stats} schema.

    Each run boots real servers inside one throwaway directory under
    [Filename.get_temp_dir_name ()], removed on exit even when the boot
    itself fails. Any failure surfacing as something other than a typed
    {!Fact_resilience.Fact_error} is a violation.

    {2 Listener tier}

    {!run} boots a real listener on a Unix socket backed by a store,
    then injects faults a deployed server must absorb, checking after
    every one that the server still answers correctly:

    - {b disconnects}: a client sends a request and hangs up before (or
      while) the response is written. Only that connection's thread may
      die; the next client must get the full, correct payload.
    - {b store corruptions}: a persisted result file is truncated or
      scribbled on. The server must drop it (counted as corrupt) and
      transparently recompute — never serve garbage.
    - {b forced evictions}: every bounded cache is force-evicted while
      requests are in flight; answers must still be byte-identical to
      the fault-free reference.
    - {b bad frames}: malformed or oversized frames must come back as a
      typed [Refused] response (or a clean close for oversized frames)
      without killing the listener. *)

val run : ?seed:int -> max_faults:int -> unit -> Fact_check.Chaos.stats
(** Tier [listener], salt [0x5e12e]. Raises a [Precondition]
    {!Fact_resilience.Fact_error} if [max_faults < 1]. *)

(** {2 Cluster tier}

    {!run_cluster} boots a real {!Cluster} — [shards × replicas]
    supervised worker {e processes} — and storms it:

    - {b kills}: [kill -9] on a random worker while client threads are
      in flight; every in-flight and follow-up query must still return
      the byte-identical one-shot payload.
    - {b replica corruptions}: the reference entry in one replica's
      store is scribbled on and the worker killed; the restart must
      quarantine the garbage and read-repair must restore the entry
      (a [repaired replicas] outcome).
    - {b stalls}: a worker is [SIGSTOP]ped; health marks it down,
      routing prefers its twin, and service continues.
    - {b blackouts}: every replica of the reference shard is killed at
      once; the front tier must degrade to local evaluation (same
      bytes) and the shard's stores must converge again once the
      workers return.

    The invariant throughout: {e zero} failed queries, every payload
    byte-identical to [Query.eval]. *)

val run_cluster :
  ?seed:int -> ?shards:int -> ?replicas:int -> max_faults:int -> unit ->
  Fact_check.Chaos.stats
(** Tier [cluster], salt [0xc1a5], default 2 × 2. Spawns real worker
    processes (see {!Supervisor.default_binary}; set [FACT_WORKER_BIN]
    to override the executable). Raises a [Precondition]
    {!Fact_resilience.Fact_error} if [max_faults < 1]. *)
