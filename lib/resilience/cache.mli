(** Bounded, instrumented memo tables.

    Every long-lived memo table in the pipeline (Chr subdivisions,
    views, critical-simplex analyses, per-facet R_A verdicts) is one
    of these: a mutex-protected hash table with an entry cap,
    LRU-ish eviction, and hit/miss/eviction counters. Because every
    cached computation is pure, eviction is always safe — a later miss
    recomputes the identical value — so results are independent of the
    cap; the cap only trades memory for recomputation.

    {b Capacity.} Each cache takes an optional per-cache [cap];
    otherwise the process default applies — the [FACT_CACHE_CAP]
    environment variable (read once at startup), overridable with
    {!set_default_cap}, initially 65536 entries. A cap [<= 0] means
    unbounded. The default is re-read on every insertion, so
    [set_default_cap] retroactively bounds existing caches.

    {b Eviction.} When an insertion pushes a cache past its cap, the
    least-recently-used quarter (by access tick) is evicted in one
    amortized sweep, leaving the cache at 3/4 cap.

    {b Invariant checking.} With checking enabled ([FACT_CACHE_CHECK=1]
    or {!set_check}), evicted entries are parked in a bounded shadow
    table; when an evicted key is later recomputed, the new value is
    compared against the evicted one with the cache's [equal] and a
    mismatch raises a [Precondition] {!Fact_error} — the chaos suite
    runs with this on to prove eviction never changes results.

    All caches self-register by name for fleet-wide operations:
    {!all_stats} (bench counters), {!clear_all}, {!force_evict_all}
    (chaos fault injection), {!reset_counters}. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** current entries *)
  cap : int;  (** effective cap at reading time; <= 0 = unbounded *)
}

val default_cap : unit -> int
val set_default_cap : int -> unit
(** [<= 0] = unbounded. Initial value: [FACT_CACHE_CAP] or 65536. *)

val set_check : bool -> unit
(** Enable/disable the eviction invariant check (default:
    [FACT_CACHE_CHECK=1] in the environment). *)

val checking : unit -> bool
(** Whether the eviction invariant check is on. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  val create :
    name:string ->
    ?cap:int ->
    ?on_evict:(K.t -> 'a -> unit) ->
    equal:('a -> 'a -> bool) ->
    unit ->
    'a t
  (** Registers the cache under [name] (names should be unique;
      duplicates only blur the aggregated stats). [equal] is used by
      the eviction invariant check — pass semantic equality
      (e.g. [Complex.equal]), not [(=)], for values containing caches
      or closures. [on_evict] is called once per evicted entry,
      {e outside} the cache lock (so it may do I/O or re-enter the
      cache) — the [fact serve] result store uses it to persist
      evictions to disk. *)

  val find_or_add : 'a t -> K.t -> (K.t -> 'a) -> 'a
  (** Memoized call: a hit refreshes the entry's LRU tick; a miss
      computes {e outside} the cache lock (recursive calls through
      other caches are fine), then inserts, evicting if over cap. On a
      racing duplicate insert the first value wins. Safe to call from
      {!Fact_topology.Parallel} worker domains. *)

  val add : 'a t -> K.t -> 'a -> unit
  (** Import path: insert a value computed elsewhere (e.g. read back
      from a persisted store on boot) without counting a hit or a
      miss. A resident entry for [key] wins; over-cap inserts evict as
      usual. *)

  val find_opt : 'a t -> K.t -> 'a option
  (** Probe without computing: counts a hit (and refreshes the LRU
      tick) or a miss. *)

  val stats : 'a t -> stats
  val clear : 'a t -> unit
  (** Drop all entries and the shadow table (counters are kept). *)

  val force_evict : 'a t -> unit
  (** Evict every entry as if the cap had been hit (entries go to the
      shadow table when checking is on) — the chaos suite's forced
      eviction fault. *)
end

val all_stats : unit -> (string * stats) list
(** Per-cache stats, sorted by name. *)

val clear_all : unit -> unit
val force_evict_all : unit -> unit
val reset_counters : unit -> unit
