(** Atomic-snapshot shared memory (Section 2).

    A vector of [n] single-writer cells supporting [update] (write own
    cell) and [snapshot] (read the whole vector atomically). Each
    operation is one request of a {!Proc.t}, performed by the executor
    as one atomic step — this is how the atomic-snapshot semantics is
    realized. *)

type 'a t

val create : int -> 'a t
val n : 'a t -> int

val id : 'a t -> int
(** Globally unique object id, used to label this memory's operations
    in {!Op.t} descriptors. *)

val update : 'a t -> pid:int -> 'a -> unit Proc.t
(** One atomic step: write the cell of [pid]. *)

val snapshot : 'a t -> 'a option array Proc.t
(** One atomic step: the current vector ([None] = never written). *)

val get : 'a t -> int -> 'a option Proc.t
(** One atomic step: read a single cell. *)

val modify : 'a t -> int -> ('a option -> 'a option * 'b) -> 'b Proc.t
(** One atomic read-modify-write of cell [i] ([f] must be pure). Its
    descriptor is {!Op.Unlabeled}: it conflicts with every step. For
    linearizable oracles such as {!Alpha_sc}. *)

val peek : 'a t -> int -> 'a option
(** Non-atomic read outside any execution — for assertions and
    printing only. *)
