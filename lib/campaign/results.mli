(** Content-addressed campaign results on disk.

    A results directory has three subdirectories:

    - [cells/<digest>.result] — the {e deterministic core} of a cell's
      outcome: layout version, the canonical cell, its digest, the
      outcome class, and the payload fingerprint (MD5, byte and line
      counts). Two runs of the same grid — whatever the backend,
      domain count or cache cap — produce byte-identical files here,
      so CI compares whole [cells/] directories with [cmp].
    - [timings/<digest>.timing] — the {e telemetry sidecar}: backend,
      answer source, wall-clock, registry-wide cache-counter deltas,
      domain count, and the failure message if any. Never compared
      byte-for-byte; [fact report] reads it for the wall-time columns
      and the regression gate.
    - [quarantine/] — where corrupt files are {e moved} (never
      deleted) before their cell is recomputed, preserving the
      evidence.

    Writes are tmp+rename within the target directory, so a crashed
    run leaves either a complete file or a stray [*.tmp] that readers
    ignore. A [.result] whose contents fail to parse, or whose digest
    disagrees with its filename, is quarantined on first contact —
    {!completed} then reports the cell as pending again. *)

type record = {
  cell : Grid.cell;
  digest : string;
  outcome : string;  (** ["ok"] or a {!class_of_error} slug *)
  payload_md5 : string;
  payload_bytes : int;
  payload_lines : int;
}

type timing = {
  backend : string;  (** ["local"] or ["serve"] *)
  source : string;  (** [computed | memory | disk | -] *)
  wall_ms : float;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  domains : int;  (** 0 when the work ran server-side *)
  error : string option;
}

val version : string

val class_of_error : Fact_resilience.Fact_error.t -> string
(** [precondition | deadline | cancelled | worker-failure |
    resource-limit | unavailable] — the typed taxonomy's slug; the
    only failure information allowed into the deterministic core. *)

val make_record :
  cell:Grid.cell -> outcome:string -> payload:string -> record
(** Fingerprint [payload] ([""] for failures) under the cell's
    {!Grid.digest}. *)

val init : string -> unit
(** Create the directory layout (idempotent). *)

val cells_dir : string -> string
val timings_dir : string -> string
val quarantine_dir : string -> string

val record_path : dir:string -> digest:string -> string

val write : dir:string -> record -> timing -> unit
(** Both files, tmp+rename each. *)

val record_to_sexp : record -> Fact_sexp.Sexp.t
val record_of_sexp : Fact_sexp.Sexp.t -> (record, string) result
val timing_to_sexp : timing -> Fact_sexp.Sexp.t
val timing_of_sexp : Fact_sexp.Sexp.t -> (timing, string) result

val completed : dir:string -> digest:string -> bool
(** True iff a valid [.result] for [digest] exists — the resume
    check. A present-but-corrupt file is quarantined and reported
    pending. *)

val load : dir:string -> (record * timing option) list * int
(** Every valid result (sorted by digest) with its sidecar if one
    parses, plus the number of files quarantined — by this call or
    ever ([quarantine/] entries accumulate). *)
