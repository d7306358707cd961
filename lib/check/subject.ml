open Fact_topology
open Fact_runtime

type event =
  | Stepped of { e_pid : int; e_op : Op.pending }
  | Crashed of { e_pid : int }

type 'r t = {
  procs : (int -> 'r Proc.t) array;
  observed : Pset.t;
  ordered : Pset.t;
  check :
    'r Exec.report -> events:event list -> truncated:bool ->
    (unit, string) result;
}

let of_procs ~prop procs =
  {
    procs;
    observed = Pset.empty;
    ordered = Pset.empty;
    check =
      (fun report ~events:_ ~truncated:_ ->
        if prop report then Ok () else Error "property violated");
  }

let record s e events =
  let pid = match e with Stepped { e_pid; _ } | Crashed { e_pid } -> e_pid in
  if Pset.mem pid s.observed then e :: events else events
