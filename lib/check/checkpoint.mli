(** Persistence for interrupted explorations.

    A checkpoint file records everything needed to resume a [fact
    explore] run: which protocol was being explored (so a resume
    against the wrong one fails fast), the universe, the explorer's
    {!Explore.snapshot}, and — for the immediate-snapshot harness —
    the distinct ordered partitions already observed. The format is
    the same s-expression dialect as {!Trace}, one value per file.
    The explorer state is a [subtrees] list — per subtree task its
    identifying prefix and its progress ([todo], a final [done] tally,
    or an interrupted [active] frontier). A one-domain exploration is
    the single root task, with an empty prefix:

    {v ((protocol is) (n 2) (participants (0 1))
        (subtrees (((prefix ((s0 ()))) (status todo))
                   ((prefix ((s1 (s0))))
                    (status (active (runs 3) (truncated 0) (pruned 1)
                            (patterns (0)) (frontier ((s1 (s0)) (s0 ()))))))))
        (parts ())) v}

    Only this layout is written. Files from older one-domain runs keep
    the root task's counters and frontier inline, in place of
    [subtrees]; they are still read, as one root [active] task:

    {v ((protocol is) (n 2) (participants (0 1)) (runs 5)
        (truncated 0) (pruned 1) (patterns (0 3))
        (frontier ((s0 (s1)) (s1 ())))
        (parts (((0) (1)) ((0 1))))) v} *)

open Fact_topology

type t = {
  protocol : string;  (** e.g. ["is"] or ["alg1"]; checked on resume *)
  n : int;
  participants : Pset.t;
  state : Explore.snapshot;
  parts : Opart.t list;
      (** partitions observed so far ([is] harness; empty otherwise) *)
}

val to_string : t -> string
val of_string : string -> (t, string) result

val save : string -> t -> unit
(** [save file t] writes [to_string t] to [file] atomically: to
    [file ^ ".tmp"] first, then renamed over [file], so an interrupted
    save leaves the previous checkpoint intact. *)

val load : string -> (t, string) result
(** [load file] reads and parses [file]; [Error msg] on I/O or parse
    failure. The message always names the offending file, so callers
    can surface it verbatim. *)
