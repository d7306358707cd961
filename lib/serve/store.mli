(** Content-addressed on-disk result store.

    One file per result, named [<digest>.fact], holding an
    s-expression record: store format version, pipeline
    {!Digest.code_version}, the digest (self-check against renames),
    the originating query, and the payload as a quoted atom. Writes go
    through a temp file + [fsync] + [rename], so a writer crashing at
    {e any} point — even [kill -9] mid-write, even with the data still
    in the page cache — never commits a truncated entry under a valid
    name. Stale temp files left by crashed writers are swept (and
    counted) the next time the directory is opened.

    Reads are defensive: an entry that fails to parse, self-check, or
    match the current code version is {e removed}, counted in
    [corrupt], and reported as a miss — corruption degrades to a
    recompute, never to a wrong answer or an untyped crash. *)

type t

type stats = {
  puts : int;
  gets : int;
  hits : int;
  misses : int;
  corrupt : int;  (** entries dropped as unreadable or stale *)
  swept : int;  (** stale temp files removed at [open_dir] *)
}

val open_dir : string -> t
(** Creates the directory if needed. Raises a typed [Precondition]
    {!Fact_resilience.Fact_error} if the path exists but is not a
    directory. *)

val dir : t -> string

val put : t -> digest:string -> query:Fact_sexp.Sexp.t -> payload:string -> unit
(** Idempotent; concurrent writers of the same digest are safe (last
    rename wins, contents identical by construction). *)

val get : t -> digest:string -> string option

val iter :
  t ->
  (digest:string -> query:Fact_sexp.Sexp.t -> payload:string -> unit) ->
  unit
(** Every currently valid entry — the boot-time warm start. Corrupt
    entries encountered along the way are dropped and counted. *)

val entries : t -> int
(** Valid-looking entry files on disk right now. *)

val stats : t -> stats
