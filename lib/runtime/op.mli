(** Atomic shared-memory operations: the requests a process issues and
    their descriptors.

    A process ({!Proc.t}) is a sequence of requests ({!req}) on shared
    objects: write or read one cell, snapshot every cell, or atomically
    update one cell. The executor ({!Exec}) performs each request as
    one atomic step. Every request has a descriptor ({!pending}), which
    schedules that care (the model-checking explorer of [Fact_check])
    use to decide which pairs of steps commute; the built-in randomized
    schedules ignore them.

    Two operations {e conflict} when the order of their execution can
    be observed: they touch the same object and overlapping cells, and
    at least one of them writes. Steps whose pending operations do not
    conflict commute — executing them in either order reaches the same
    state — which is what justifies sleep-set pruning during
    systematic exploration. *)

type kind =
  | Write of int  (** writes cell [i] of the object *)
  | Read of int   (** reads cell [i] of the object *)
  | Snapshot      (** atomically reads every cell of the object *)

type t = {
  obj : int;  (** unique id of the shared object (see {!Memory.id}) *)
  kind : kind;
}

type pending =
  | Start      (** process not started: its first step runs only local
                   code up to its first request, no shared operation *)
  | Unlabeled  (** suspended before an {!Update_cell}: an opaque
                   read-modify-write, conservatively conflicting with
                   everything *)
  | Op of t    (** suspended immediately before this operation *)

type 'v store = {
  id : int;
  cells : 'v option array;  (** [None] = never written *)
  writes : pending array;   (** the descriptor of a write, per cell *)
  reads : pending array;    (** the descriptor of a read, per cell *)
  snap : pending;           (** the descriptor of a snapshot *)
}
(** The state of one shared object. Only {!Memory} creates stores and
    only the executor changes their cells; the descriptors are built
    once, so announcing a pending operation allocates nothing. *)

type _ req =
  | Write_cell : 'v store * int * 'v -> unit req
  | Read_cell : 'v store * int -> 'v option req
  | Snapshot_cells : 'v store -> 'v option array req
  | Update_cell : 'v store * int * ('v option -> 'v option * 'a) -> 'a req
      (** replace cell [i] by the first component of [f old], return
          the second; [f] must be pure *)

val pending_of_req : 'a req -> pending
(** The descriptor of a request. *)

val conflict : t -> t -> bool
(** Same object, overlapping cells, at least one write. *)

val commute : pending -> pending -> bool
(** Do the next steps of two {e distinct} processes commute? [Start]
    commutes with everything (a start step is purely local);
    [Unlabeled] commutes with nothing; two known operations commute
    iff they do not {!conflict}. *)

val pp : Format.formatter -> t -> unit
val pp_pending : Format.formatter -> pending -> unit
