(** The listener fault-injection tier: a fault table on the one seeded
    driver {!Fact_check.Chaos.drive}, reporting in its
    {!Fact_check.Chaos.stats} schema.

    Each run boots a real server inside one throwaway directory under
    [Filename.get_temp_dir_name ()], removed on exit even when the boot
    itself fails. Any failure surfacing as something other than a typed
    {!Fact_resilience.Fact_error} is a violation.

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
