(** Write–snapshot–decide-min: the simplest full-information protocol
    with a decision value per process.

    Every process publishes its proposal in its cell of one atomic
    snapshot memory, takes one snapshot, and decides the minimum value
    it saw. Since the snapshots of a single memory are totally ordered,
    the views form a containment chain, so at most [n] distinct values
    are decided ([n]-set consensus) — but nothing stronger: a late
    writer whose snapshot sees only itself decides its own proposal, so
    [k]-agreement for [k < n] has counterexample schedules, which makes
    this protocol the canonical demo for the task-parameterized
    agreement/validity assertion schemas of [Fact_check.Assertion].

    The CLI exposes it as protocol [wsmin]. *)

type instance

val create : proposals:int array -> instance
(** Fresh shared memory for [Array.length proposals] processes;
    process [i] will propose [proposals.(i)]. One instance per run. *)

val n : instance -> int
val id : instance -> int

val objects : instance -> (string * int) list
(** Symbolic object-name map for assertions: [mem]. *)

val proposal : instance -> int -> int

val process : ?biased:bool -> instance -> pid:int -> int Proc.t
(** One process: update, snapshot, decide the minimum seen. [biased]
    (default [false]) is a seeded mutant that decides [min + 1] — a
    non-proposed value, caught by the validity assertion. *)
