(** The one log-bucket latency histogram of the repository.

    Doubling millisecond buckets: bucket [i] counts observations in
    [(2^(i-1), 2^i]] ms (bucket 0: <= 1 ms), the last bucket is the
    overflow. {!Scheduler} keeps one per endpoint and the campaign
    report ([fact report]) folds per-cell wall times into one — both
    answer percentile questions through the same {!percentile}
    accessor, so "p95" means the same thing in server stats and CI
    gates.

    Not thread-safe: callers serialize access (the scheduler holds its
    lock). *)

type t

val buckets : int
(** Number of buckets (20: <=1ms up to >2^18 ms, then overflow). *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation, in milliseconds. Negative values count as
    0 ms. *)

val of_counts : int array -> t
(** Adopt a raw bucket-count array (length {!buckets}; shorter arrays
    are zero-padded, longer ones folded into the overflow bucket).
    Mean and max are unavailable on the result (0). *)

val count : t -> int
val mean_ms : t -> float
val max_ms : t -> float

val counts : t -> int array
(** A copy of the bucket counts. *)

val percentile : t -> float -> float
(** [percentile t p] (0 < p <= 100): the upper bound of the bucket
    holding the ceil(p% * count)-th smallest observation — a
    deterministic over-estimate within one doubling. 0 on an empty
    histogram. *)

val percentiles_line : t -> string
(** ["p50<=1ms p95<=4ms p99<=8ms"] via {!percentile} — the format
    server stats include and CI greps. *)

val pp_counts_line : t -> string
(** [" <=1:3 <=4:2 >262144:1"] — nonzero buckets only, bounds in ms. *)
