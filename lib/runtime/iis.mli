(** The iterated immediate snapshot (IIS) runtime (Section 2).

    Processes proceed through a sequence of independent one-shot IS
    memories, running the full-information protocol: the value written
    in round [r] is the view obtained in round [r − 1]. The final view
    of a process is (isomorphic to) a vertex of [Chr^m s]; the views of
    all processes form a simplex of [Chr^m s] — verified by the test
    suite under random schedules. *)

open Fact_topology

type view =
  | Base of { pid : int; input : int }
  | Snap of { pid : int; seen : view list }
      (** [seen]: the round-(r−1) views collected in round r. *)

type t

val create : n:int -> rounds:int -> t
val n : t -> int
val rounds : t -> int

val process : t -> pid:int -> input:int -> view Proc.t
(** The full-information protocol for one process (to be run under
    {!Exec.run}); returns its final view. *)

val to_vertex : view -> Vertex.t
(** The vertex of [Chr^m s] (or of [Chr^m] of an input complex if
    inputs are non-zero) corresponding to a view. *)

val simplex_of_views : view list -> Simplex.t
(** The simplex formed by the given (distinct-process) views. *)
