(** Aggregate a results directory; gate CI on regressions.

    [fact report] folds [cells/] + [timings/] into machine-readable
    tables (JSON one cell per line, CSV), a fingerprint listing,
    a markdown table it splices into EXPERIMENTS.md between marker
    comments, and — the CI teeth — {!gate}: compare wall-time and
    fingerprint columns against a committed baseline (itself a prior
    {!to_json} output) with a multiplicative tolerance band plus an
    absolute slack, and report every violated cell.

    Wall-time percentiles come from the same {!Fact_serve.Histogram}
    accessor the scheduler's stats print, so "p95" means the same thing
    everywhere. *)

type row = { record : Results.record; timing : Results.timing option }

type t = {
  rows : row list;  (** sorted by (endpoint, n, adversary, …, digest) *)
  quarantined : int;
}

val load : dir:string -> t

val hist : t -> Fact_serve.Histogram.t
(** Per-cell wall times folded into the repository's log-bucket
    histogram. *)

val to_json : t -> string
(** One cell object per line — both the [--json] output and the
    baseline format {!gate} reads. *)

val to_csv : t -> string

val fingerprints : t -> string
(** ["<digest> <payload-md5> <outcome>\n"] per cell, sorted by digest:
    the deterministic column, for byte-comparing two runs. *)

val markdown : t -> string
(** The EXPERIMENTS.md table (includes wall-time columns, so it is
    regenerated, never hand-edited). *)

val begin_marker : string
val end_marker : string

val splice : file:string -> t -> unit
(** Replace the block between {!begin_marker} and {!end_marker} in
    [file] (append the block if the markers are absent), tmp+rename.
    Raises a typed [Precondition] error if the file has a begin marker
    without an end marker. *)

val str_field : string -> string -> string option
val num_field : string -> string -> float option
(** [str_field line key] / [num_field line key] extract a ["key": v]
    field from one line of a JSON table {e this repository wrote}
    (one object per line, [Printf]-rendered). Not a JSON parser — the
    shared scanning primitive behind {!gate}, {!trend} and the bench
    gate ({!Bench_entries.gate}). *)

val gate :
  ?tolerance:float ->
  ?slack_ms:float ->
  baseline:string ->
  t ->
  (int, string list) result
(** [gate ~baseline:(contents of a committed {!to_json})] checks, per
    baseline cell: it exists in the current run, its fingerprint
    (payload MD5 + outcome) is unchanged, and its wall time is at most
    [tolerance * baseline + slack_ms] (defaults: 4.0, 50 ms). Extra
    current cells pass silently — growing a grid is not a regression.
    [Ok n] reports the number of compared cells; [Error] carries one
    line per violation. *)

val trend : ?format:[ `Md | `Csv ] -> (string * string) list -> string
(** [trend [(label, contents); ...]] lines the wall-time column of
    several baseline JSONs up side by side — one [(label, file
    contents)] pair per snapshot, oldest first. Both baseline dialects
    are understood: campaign {!to_json} cells (keyed by content
    digest) and [BENCH_topology.json] entries (keyed by name and [n]).
    Markdown output appends a trend column, last over first snapshot;
    CSV emits raw numbers with blanks for entries a snapshot lacks.
    Raises a typed [Precondition] error for a file with no entries. *)
