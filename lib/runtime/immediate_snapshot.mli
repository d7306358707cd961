(** One-shot immediate snapshot object (Borowsky–Gafni [4]).

    Wait-free implementation over atomic-snapshot memory using the
    classical level-descent algorithm: a process repeatedly lowers its
    level and snapshots until the set of processes at or below its own
    level has size at least that level; that set is its IS view. The
    returned views satisfy self-inclusion, containment and immediacy
    (checked by the property tests under every schedule). *)

open Fact_topology

type 'a t

val create : int -> 'a t

val id : 'a t -> int
(** The object id of the underlying snapshot memory — this is the id
    that labels the IS's operations in {!Op.t} descriptors, so frame
    assertions can name the object symbolically. *)

val write_snapshot : 'a t -> pid:int -> 'a -> (int * 'a) list Proc.t
(** [WriteSnapshot(v)]: submits [v] and returns the set of submitted
    (process, value) pairs of the view, sorted by process id. One-shot
    per process. *)

val view_set : (int * 'a) list -> Pset.t
(** The process set of a view. *)
