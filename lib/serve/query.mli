(** The query surface served by [fact serve].

    A {!t} is a self-contained, deterministic question about the
    paper's objects — the same computations the one-shot CLI
    subcommands run, factored out so that the one-shot path and the
    server produce {e bit-identical} payloads: both call {!eval}.

    Endpoints:
    - [Ra]: build the affine task [R_A] of an adversary and render its
      statistics (complex size, Euler characteristic, volume,
      link-connectivity, per-[P] delta sizes).
    - [Chr]: statistics of the iterated chromatic subdivision.
    - [Critical]: the critical simplices of [Chr s] under an
      adversary's agreement function (Figure 5).
    - [Setcon]: agreement power and minimal-hitting-set size.
    - [Fairness]: the fairness check, with violations when unfair.
    - [Explore]: a bounded model-checking run, reporting its final
      statistics (the [fact explore] counters).

    Evaluation is pure modulo the process-wide memo caches; it polls
    the ambient {!Fact_resilience.Cancel} token, so servers can bound
    each request with a deadline. *)

open Fact_sexp

type adversary_spec =
  | Preset of string  (** [wait-free | fig5b | t-res:T | k-of:K] *)
  | Live of int list list  (** explicit live sets *)

type t =
  | Ra of { n : int; adv : adversary_spec }
  | Chr of { n : int; m : int }
  | Critical of { n : int; adv : adversary_spec }
  | Setcon of { n : int; adv : adversary_spec }
  | Fairness of { n : int; adv : adversary_spec }
  | Explore of { protocol : string; n : int; max_runs : int }

val endpoint : t -> string
(** The endpoint name ([ra], [chr], ...) — the key of the server's
    per-endpoint latency histograms. *)

val to_sexp : t -> Sexp.t
(** Canonical form: field order is fixed, so equal queries render to
    equal strings (the content-address of {!Fact_serve.Digest} relies
    on this). *)

val of_sexp : Sexp.t -> (t, string) result

val adversary : n:int -> adversary_spec -> Fact_adversary.Adversary.t
(** Resolve a spec against universe size [n]. Raises a typed
    [Precondition] {!Fact_resilience.Fact_error} on an unknown preset
    or malformed live sets.

    A [wait-free], [t-res] or [k-of] preset builds every one of its
    live sets, so its count ([Σ C(n, k)] over the admitted sizes) is
    computed first and a preset with more than 2{^20} live sets is
    refused with a typed [Precondition], as is [n] outside
    [0..Pset.max_processes]. Measured on one core: [wait-free] at
    n = 20 (2{^20} − 1 sets) builds in 2.3 s within a 102 MB heap,
    n = 21 in 4.9 s within 250 MB, and n = 22 aborts under a 600 MB
    address-space limit. Explicit [Live] lists are not bounded here:
    they are no larger than the request that carries them. *)

val check_size : n:int -> m:int -> unit
(** Refuse, with a typed [Precondition], a universe whose [Chr^m s]
    would hold more than 2{^24} faces ([fubini n ^ m] facets of [2^n]
    faces each), or a negative [n]. {!eval} applies it before building
    anything: with [m = 2] for [Ra] and the [alg1] [Explore] (both
    build [R_A ⊆ Chr² s]), [m] for [Chr] and [m = 1] for [Critical]. *)

val eval : t -> string
(** Run the query and render its payload. Deterministic: independent
    of domain count, cache caps and cache temperature. Raises typed
    {!Fact_resilience.Fact_error}s only (preconditions, cancellation,
    deadlines, worker failures). *)
